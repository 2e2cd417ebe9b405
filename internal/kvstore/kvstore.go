// Package kvstore implements the paper's motivating example (§1): a
// Dynamo-style key–value store outsourced to an untrusted cloud, where
// every operation the cloud answers is verified by a streaming
// interactive proof.
//
// The data owner (Client) never stores the data. While uploading puts it
// maintains only O(log u) verification summaries; afterwards it can run
// verified get / previous-key / next-key / range / range-sum / top-keys
// queries against the cloud.
//
// Multiple queries: as the paper's §7 discusses, re-running a protocol
// with the same verifier randomness is unsafe — after a conversation the
// prover has seen the random point. The remedy the paper prescribes
// ("V can just carry out multiple independent copies of the protocol,
// [each] only O(log u) space") is implemented literally: the client keeps
// a budget of independent verifier bundles, all fed by the stream, and
// each query consumes one.
package kvstore

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// ErrBudgetExhausted is returned when all verifier bundles are used.
var ErrBudgetExhausted = errors.New("kvstore: query budget exhausted (create the client with a larger budget)")

// Cloud is the untrusted storage provider: it retains the full update
// log and constructs honest provers on demand. A dishonest cloud is
// modeled by mutating Log before querying (see the tamper example).
type Cloud struct {
	U   uint64
	Log []stream.Update // +1-shifted dictionary updates, one per put
	Raw []stream.Update // unshifted (key, value) updates
}

// bundle is one single-use set of independent verifiers.
type bundle struct {
	dict *core.DictionaryVerifier
	pred *core.PredecessorVerifier
	succ *core.SuccessorVerifier
	rq   *core.SubVectorVerifier
	rs   *core.RangeSumVerifier
	hh   *core.HeavyHittersVerifier
}

// Client is the data owner.
type Client struct {
	f field.Field
	u uint64

	dictProto *core.Dictionary
	predProto *core.Predecessor
	succProto *core.Successor
	rqProto   *core.SubVector
	rsProto   *core.RangeSum
	hhProto   *core.HeavyHitters

	bundles []bundle
	next    int
	keys    int
}

// NewClient creates a client for keys and values in [0, u) with the given
// query budget, sampling all verifier randomness from rng up front.
func NewClient(f field.Field, u uint64, budget int, rng field.RNG) (*Client, error) {
	if budget < 1 {
		return nil, fmt.Errorf("kvstore: budget %d < 1", budget)
	}
	c := &Client{f: f, u: u}
	var err error
	if c.dictProto, err = core.NewDictionary(f, u); err != nil {
		return nil, err
	}
	if c.predProto, err = core.NewPredecessor(f, u); err != nil {
		return nil, err
	}
	if c.succProto, err = core.NewSuccessor(f, u); err != nil {
		return nil, err
	}
	if c.rqProto, err = core.NewRangeQuery(f, u); err != nil {
		return nil, err
	}
	if c.rsProto, err = core.NewRangeSum(f, u); err != nil {
		return nil, err
	}
	if c.hhProto, err = core.NewHeavyHitters(f, u); err != nil {
		return nil, err
	}
	c.bundles = make([]bundle, budget)
	for i := range c.bundles {
		c.bundles[i] = bundle{
			dict: c.dictProto.NewVerifier(rng),
			pred: c.predProto.NewVerifier(rng),
			succ: c.succProto.NewVerifier(rng),
			rq:   c.rqProto.NewVerifier(rng),
			rs:   c.rsProto.NewVerifier(rng),
			hh:   c.hhProto.NewVerifier(rng),
		}
	}
	return c, nil
}

// NewCloud creates an empty store for the same universe.
func NewCloud(u uint64) *Cloud { return &Cloud{U: u} }

// Put uploads one (key, value) pair: the cloud stores it, the client only
// folds it into its summaries. Keys must be distinct (the DICTIONARY
// promise); values must be < u.
func (c *Client) Put(cloud *Cloud, key, value uint64) error {
	shifted, err := c.dictProto.PutUpdate(key, value)
	if err != nil {
		return err
	}
	raw := stream.Update{Index: key, Delta: int64(value)}
	for i := range c.bundles {
		b := &c.bundles[i]
		if err := b.dict.Observe(shifted); err != nil {
			return err
		}
		if err := b.pred.Observe(shifted); err != nil {
			return err
		}
		if err := b.succ.Observe(shifted); err != nil {
			return err
		}
		if err := b.rq.Observe(shifted); err != nil {
			return err
		}
		if err := b.rs.Observe(raw); err != nil {
			return err
		}
		if err := b.hh.Observe(raw); err != nil {
			return err
		}
	}
	cloud.Log = append(cloud.Log, shifted)
	cloud.Raw = append(cloud.Raw, raw)
	c.keys++
	return nil
}

// Keys returns the number of puts so far.
func (c *Client) Keys() int { return c.keys }

// RemainingQueries returns how many verified queries the client can still
// issue.
func (c *Client) RemainingQueries() int { return len(c.bundles) - c.next }

func (c *Client) take() (*bundle, error) {
	if c.next >= len(c.bundles) {
		return nil, ErrBudgetExhausted
	}
	b := &c.bundles[c.next]
	c.next++
	return b, nil
}

// prove runs one query's conversation against the cloud. The cloud
// proves from the aggregate of ups; v already has its query set.
func (c *Client) prove(v core.VerifierSession, ups []stream.Update, kind engine.QueryKind, params engine.QueryParams) (core.Stats, error) {
	p, err := engine.NewReplayProver(c.f, c.u, kind, params, ups, 0)
	if err != nil {
		return core.Stats{}, err
	}
	return core.Run(p, v)
}

// Get retrieves and verifies the value stored under key.
func (c *Client) Get(cloud *Cloud, key uint64) (value uint64, found bool, stats core.Stats, err error) {
	b, err := c.take()
	if err == nil {
		err = b.dict.SetQuery(key)
	}
	if err != nil {
		return 0, false, core.Stats{}, err
	}
	if stats, err = c.prove(b.dict, cloud.Log, engine.QueryDictionary, engine.QueryParams{A: key}); err != nil {
		return 0, false, stats, err
	}
	value, found, err = b.dict.Value()
	return value, found, stats, err
}

// PrevKey returns the largest stored key ≤ q, verified.
func (c *Client) PrevKey(cloud *Cloud, q uint64) (key uint64, found bool, stats core.Stats, err error) {
	b, err := c.take()
	if err == nil {
		err = b.pred.SetQuery(q)
	}
	if err != nil {
		return 0, false, core.Stats{}, err
	}
	if stats, err = c.prove(b.pred, cloud.Log, engine.QueryPredecessor, engine.QueryParams{A: q}); err != nil {
		return 0, false, stats, err
	}
	key, found, err = b.pred.Result()
	return key, found, stats, err
}

// NextKey returns the smallest stored key ≥ q, verified.
func (c *Client) NextKey(cloud *Cloud, q uint64) (key uint64, found bool, stats core.Stats, err error) {
	b, err := c.take()
	if err == nil {
		err = b.succ.SetQuery(q)
	}
	if err != nil {
		return 0, false, core.Stats{}, err
	}
	if stats, err = c.prove(b.succ, cloud.Log, engine.QuerySuccessor, engine.QueryParams{A: q}); err != nil {
		return 0, false, stats, err
	}
	key, found, err = b.succ.Result()
	return key, found, stats, err
}

// Pair is one key–value result of a verified range scan.
type Pair struct {
	Key, Value uint64
}

// Range returns all (key, value) pairs with lo ≤ key ≤ hi, verified.
func (c *Client) Range(cloud *Cloud, lo, hi uint64) ([]Pair, core.Stats, error) {
	b, err := c.take()
	if err == nil {
		err = b.rq.SetQuery(lo, hi)
	}
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats, err := c.prove(b.rq, cloud.Log, engine.QueryRangeQuery, engine.QueryParams{A: lo, B: hi})
	if err != nil {
		return nil, stats, err
	}
	entries, err := b.rq.Result()
	if err != nil {
		return nil, stats, err
	}
	out := make([]Pair, 0, len(entries))
	for _, e := range entries {
		if e.Value < 1 {
			return nil, stats, fmt.Errorf("kvstore: malformed stored entry at key %d", e.Index)
		}
		out = append(out, Pair{Key: e.Index, Value: uint64(e.Value) - 1})
	}
	return out, stats, nil
}

// SumRange returns the verified sum of values over lo ≤ key ≤ hi.
func (c *Client) SumRange(cloud *Cloud, lo, hi uint64) (int64, core.Stats, error) {
	b, err := c.take()
	if err == nil {
		err = b.rs.SetQuery(lo, hi)
	}
	if err != nil {
		return 0, core.Stats{}, err
	}
	stats, err := c.prove(b.rs, cloud.Raw, engine.QueryRangeSum, engine.QueryParams{A: lo, B: hi})
	if err != nil {
		return 0, stats, err
	}
	sum, err := b.rs.SignedResult()
	return sum, stats, err
}

// TopKeys returns the keys holding at least a phi fraction of the total
// stored value mass, verified complete ("the heavy hitters are the keys
// which have the largest values associated with them", §1.1).
func (c *Client) TopKeys(cloud *Cloud, phi float64) ([]core.HeavyHitter, core.Stats, error) {
	b, err := c.take()
	if err == nil {
		err = b.hh.SetQuery(phi)
	}
	if err != nil {
		return nil, core.Stats{}, err
	}
	stats, err := c.prove(b.hh, cloud.Raw, engine.QueryHeavyHitters, engine.QueryParams{Phi: phi})
	if err != nil {
		return nil, stats, err
	}
	hh, _, err := b.hh.Result()
	return hh, stats, err
}
