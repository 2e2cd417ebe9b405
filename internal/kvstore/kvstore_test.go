package kvstore

import (
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/stream"
)

var f61 = field.Mersenne()

func setup(t *testing.T, budget int) (*Client, *Cloud, map[uint64]uint64) {
	t.Helper()
	const u = 1 << 10
	client, err := NewClient(f61, u, budget, field.NewSplitMix64(950))
	if err != nil {
		t.Fatal(err)
	}
	cloud := NewCloud(u)
	pairs, err := stream.DistinctKV(u, 100, u-1, field.NewSplitMix64(951))
	if err != nil {
		t.Fatal(err)
	}
	kv := map[uint64]uint64{}
	for _, p := range pairs {
		if err := client.Put(cloud, p.Key, p.Value); err != nil {
			t.Fatal(err)
		}
		kv[p.Key] = p.Value
	}
	return client, cloud, kv
}

func TestGet(t *testing.T) {
	client, cloud, kv := setup(t, 4)
	var someKey uint64
	for k := range kv {
		someKey = k
		break
	}
	val, found, stats, err := client.Get(cloud, someKey)
	if err != nil {
		t.Fatalf("get rejected: %v", err)
	}
	if !found || val != kv[someKey] {
		t.Fatalf("get(%d) = (%d,%v), want (%d,true)", someKey, val, found, kv[someKey])
	}
	if stats.CommBytes() > 2048 {
		t.Errorf("get cost %d bytes; expected well under 2KB", stats.CommBytes())
	}
	// Absent key.
	var absent uint64
	for k := uint64(0); k < 1<<10; k++ {
		if _, ok := kv[k]; !ok {
			absent = k
			break
		}
	}
	_, found, _, err = client.Get(cloud, absent)
	if err != nil {
		t.Fatalf("absent get rejected: %v", err)
	}
	if found {
		t.Fatal("absent key reported found")
	}
	if left := len(client.slots) - client.next; left != 2 {
		t.Fatalf("remaining queries = %d, want 2", left)
	}
}

func TestOrderedOps(t *testing.T) {
	client, cloud, kv := setup(t, 4)
	// Reference sorted keys.
	var maxKey uint64
	for k := range kv {
		if k > maxKey {
			maxKey = k
		}
	}
	prev, found, _, err := client.PrevKey(cloud, maxKey)
	if err != nil || !found || prev != maxKey {
		t.Fatalf("PrevKey(max) = (%d,%v), %v", prev, found, err)
	}
	next, found, _, err := client.NextKey(cloud, 0)
	if err != nil || !found {
		t.Fatalf("NextKey(0) failed: %v", err)
	}
	var minKey uint64 = 1 << 10
	for k := range kv {
		if k < minKey {
			minKey = k
		}
	}
	if next != minKey {
		t.Fatalf("NextKey(0) = %d, want %d", next, minKey)
	}
}

func TestRangeAndSum(t *testing.T) {
	client, cloud, kv := setup(t, 4)
	lo, hi := uint64(100), uint64(600)
	pairs, _, err := client.Range(cloud, lo, hi)
	if err != nil {
		t.Fatalf("range rejected: %v", err)
	}
	wantCount := 0
	var wantSum int64
	for k, v := range kv {
		if k >= lo && k <= hi {
			wantCount++
			wantSum += int64(v)
		}
	}
	if len(pairs) != wantCount {
		t.Fatalf("range returned %d pairs, want %d", len(pairs), wantCount)
	}
	for _, p := range pairs {
		if kv[p.Key] != p.Value {
			t.Fatalf("range pair %d = %d, want %d", p.Key, p.Value, kv[p.Key])
		}
	}
	sum, _, err := client.SumRange(cloud, lo, hi)
	if err != nil {
		t.Fatalf("sum rejected: %v", err)
	}
	if sum != wantSum {
		t.Fatalf("sum = %d, want %d", sum, wantSum)
	}
}

func TestTopKeys(t *testing.T) {
	const u = 512
	client, err := NewClient(f61, u, 1, field.NewSplitMix64(952))
	if err != nil {
		t.Fatal(err)
	}
	cloud := NewCloud(u)
	// One dominant value.
	if err := client.Put(cloud, 7, 400); err != nil {
		t.Fatal(err)
	}
	for k := uint64(10); k < 20; k++ {
		if err := client.Put(cloud, k, 5); err != nil {
			t.Fatal(err)
		}
	}
	top, _, err := client.TopKeys(cloud, 0.5)
	if err != nil {
		t.Fatalf("top-keys rejected: %v", err)
	}
	if len(top) != 1 || top[0].Index != 7 || top[0].Count != 400 {
		t.Fatalf("top = %+v", top)
	}
}

// TestCheatingCloudCaught: the cloud rewrites a stored value; every query
// touching it is rejected.
func TestCheatingCloudCaught(t *testing.T) {
	client, cloud, kv := setup(t, 2)
	var someKey uint64
	for k := range kv {
		someKey = k
		break
	}
	// The cloud silently replaces the stored log entry for someKey.
	for i := range cloud.Log {
		if cloud.Log[i].Index == someKey {
			cloud.Log[i].Delta++
		}
	}
	if _, _, _, err := client.Get(cloud, someKey); !errors.Is(err, core.ErrRejected) {
		t.Fatalf("cheating cloud not rejected: %v", err)
	}
}

func TestBudgetExhaustion(t *testing.T) {
	client, cloud, _ := setup(t, 1)
	if _, _, _, err := client.Get(cloud, 1); err != nil && !errors.Is(err, core.ErrRejected) {
		t.Fatalf("first query failed unexpectedly: %v", err)
	}
	if _, _, _, err := client.Get(cloud, 2); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("second query should exhaust budget: %v", err)
	}
	if _, err := NewClient(f61, 64, 0, field.NewSplitMix64(1)); err == nil {
		t.Error("zero budget accepted")
	}
}
