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
// a budget of independent slots, all fed by the stream, and each query
// consumes one. A slot is two verifier tickets (engine.Ticket) whose
// query is picked when it is asked: a tree ticket over the +1-shifted
// dictionary log (get, previous/next key, range) and a point +
// augmented-tree ticket over the raw values (range sum, top keys). A put
// feeds three summaries per slot.
package kvstore

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/field"
	"repro/internal/stream"
)

// ErrBudgetExhausted is returned when all verifier slots are used.
var ErrBudgetExhausted = errors.New("kvstore: query budget exhausted (create the client with a larger budget)")

// Cloud is the untrusted storage provider: it retains the full update
// log and constructs honest provers on demand. A dishonest cloud is
// modeled by mutating Log before querying (see the tamper example).
type Cloud struct {
	U   uint64
	Log []stream.Update // +1-shifted dictionary updates, one per put
	Raw []stream.Update // unshifted (key, value) updates
}

// slot is one query's worth of independent verifier randomness.
type slot struct {
	shifted, raw *engine.Ticket
}

// Client is the data owner.
type Client struct {
	f     field.Field
	u     uint64
	dict  *core.Dictionary // the +1 put encoding
	slots []slot
	next  int
	keys  int
}

// NewClient creates a client for keys and values in [0, u) with the given
// query budget, sampling all verifier randomness from rng up front.
func NewClient(f field.Field, u uint64, budget int, rng field.RNG) (*Client, error) {
	if budget < 1 {
		return nil, fmt.Errorf("kvstore: budget %d < 1", budget)
	}
	dict, err := core.NewDictionary(f, u)
	if err != nil {
		return nil, err
	}
	c := &Client{f: f, u: u, dict: dict, slots: make([]slot, budget)}
	for i := range c.slots {
		s := &c.slots[i]
		// A DICTIONARY ticket holds the tree summary every shifted-log
		// query adopts; the raw ticket holds RANGE-SUM's and HEAVY HITTERS'.
		if s.shifted, err = engine.NewTicket(f, u, []engine.QueryKind{engine.QueryDictionary}, rng); err != nil {
			return nil, err
		}
		if s.raw, err = engine.NewTicket(f, u, []engine.QueryKind{engine.QueryRangeSum, engine.QueryHeavyHitters}, rng); err != nil {
			return nil, err
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
	shifted, err := c.dict.PutUpdate(key, value)
	if err != nil {
		return err
	}
	raw := stream.Update{Index: key, Delta: int64(value)}
	for _, s := range c.slots {
		if err := s.shifted.Observe(shifted); err != nil {
			return err
		}
		if err := s.raw.Observe(raw); err != nil {
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
func (c *Client) RemainingQueries() int { return len(c.slots) - c.next }

// ask spends the next slot on one query — its raw ticket over cloud.Raw
// when raw is set, else its shifted ticket over cloud.Log — and runs the
// conversation against the cloud, which proves from that log's aggregate.
func (c *Client) ask(cloud *Cloud, raw bool, kind engine.QueryKind, params engine.QueryParams) (engine.Answer, core.Stats, error) {
	if c.next >= len(c.slots) {
		return engine.Answer{}, core.Stats{}, ErrBudgetExhausted
	}
	s, ups := c.slots[c.next].shifted, cloud.Log
	if raw {
		s, ups = c.slots[c.next].raw, cloud.Raw
	}
	c.next++
	v, err := s.Spend(kind, params)
	if err != nil {
		return engine.Answer{}, core.Stats{}, err
	}
	p, err := engine.NewReplayProver(c.f, c.u, kind, params, ups, 0)
	if err != nil {
		return engine.Answer{}, core.Stats{}, err
	}
	stats, err := core.Run(p, v)
	if err != nil {
		return engine.Answer{}, stats, err
	}
	a, err := engine.AnswerOf(kind, v)
	return a, stats, err
}

// Get retrieves and verifies the value stored under key.
func (c *Client) Get(cloud *Cloud, key uint64) (value uint64, found bool, stats core.Stats, err error) {
	a, stats, err := c.ask(cloud, false, engine.QueryDictionary, engine.QueryParams{A: key})
	return a.At, a.Found, stats, err
}

// PrevKey returns the largest stored key ≤ q, verified.
func (c *Client) PrevKey(cloud *Cloud, q uint64) (key uint64, found bool, stats core.Stats, err error) {
	a, stats, err := c.ask(cloud, false, engine.QueryPredecessor, engine.QueryParams{A: q})
	return a.At, a.Found, stats, err
}

// NextKey returns the smallest stored key ≥ q, verified.
func (c *Client) NextKey(cloud *Cloud, q uint64) (key uint64, found bool, stats core.Stats, err error) {
	a, stats, err := c.ask(cloud, false, engine.QuerySuccessor, engine.QueryParams{A: q})
	return a.At, a.Found, stats, err
}

// Pair is one key–value result of a verified range scan.
type Pair struct {
	Key, Value uint64
}

// Range returns all (key, value) pairs with lo ≤ key ≤ hi, verified.
func (c *Client) Range(cloud *Cloud, lo, hi uint64) ([]Pair, core.Stats, error) {
	a, stats, err := c.ask(cloud, false, engine.QueryRangeQuery, engine.QueryParams{A: lo, B: hi})
	if err != nil {
		return nil, stats, err
	}
	out := make([]Pair, 0, len(a.Entries))
	for _, e := range a.Entries {
		if e.Value < 1 {
			return nil, stats, fmt.Errorf("kvstore: malformed stored entry at key %d", e.Index)
		}
		out = append(out, Pair{Key: e.Index, Value: uint64(e.Value) - 1})
	}
	return out, stats, nil
}

// SumRange returns the verified sum of values over lo ≤ key ≤ hi.
func (c *Client) SumRange(cloud *Cloud, lo, hi uint64) (int64, core.Stats, error) {
	a, stats, err := c.ask(cloud, true, engine.QueryRangeSum, engine.QueryParams{A: lo, B: hi})
	return a.Int, stats, err
}

// TopKeys returns the keys holding at least a phi fraction of the total
// stored value mass, verified complete ("the heavy hitters are the keys
// which have the largest values associated with them", §1.1).
func (c *Client) TopKeys(cloud *Cloud, phi float64) ([]core.HeavyHitter, core.Stats, error) {
	a, stats, err := c.ask(cloud, true, engine.QueryHeavyHitters, engine.QueryParams{Phi: phi})
	return a.Hitters, stats, err
}
