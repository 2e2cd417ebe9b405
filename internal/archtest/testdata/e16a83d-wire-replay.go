package wire

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/field"
	"repro/internal/gkr"
	"repro/internal/stream"
)

// BuildProver constructs the prover session for a query by replaying a
// raw stream through the session's Observe path. The serving path never
// does this — provers come from dataset snapshots, and even the
// dishonest-cloud hook rewrites maintained counts. It is the streaming
// reference the engine's and this package's transcript-equality tests
// compare snapshot-built provers against, and has no other caller (it
// lives outside a _test.go file because engine's external test package
// imports it). workers is the prover's parallel fan-out (0 serial,
// n < 0 runtime.NumCPU()); the transcript is identical for every value.
func BuildProver(f field.Field, u uint64, kind QueryKind, params QueryParams, ups []stream.Update, workers int) (core.ProverSession, error) {
	observe := func(obs interface{ Observe(stream.Update) error }) error {
		for _, up := range ups {
			if err := obs.Observe(up); err != nil {
				return err
			}
		}
		return nil
	}
	switch kind {
	case QuerySelfJoinSize, QueryFk:
		k := 2
		if kind == QueryFk {
			k = int(params.K)
		}
		proto, err := core.NewFk(f, u, k)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		p := proto.NewProver()
		return p, observe(p)
	case QueryRangeSum:
		proto, err := core.NewRangeSum(f, u)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(params.A, params.B)
	case QueryRangeQuery:
		proto, err := core.NewRangeQuery(f, u)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(params.A, params.B)
	case QueryIndex:
		proto, err := core.NewIndex(f, u)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(params.A)
	case QueryDictionary:
		proto, err := core.NewDictionary(f, u)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(params.A)
	case QueryPredecessor:
		proto, err := core.NewPredecessor(f, u)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(params.A)
	case QuerySuccessor:
		proto, err := core.NewSuccessor(f, u)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(params.A)
	case QueryKLargest:
		proto, err := core.NewKLargest(f, u)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(int(params.K))
	case QueryHeavyHitters:
		proto, err := core.NewHeavyHitters(f, u)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		p := proto.NewProver()
		if err := observe(p); err != nil {
			return nil, err
		}
		return p, p.SetQuery(params.Phi)
	case QueryF0:
		proto, err := core.NewF0(f, u, params.Phi)
		if err != nil {
			return nil, err
		}
		proto.Workers = workers
		p := proto.NewProver()
		return p, observe(p)
	case QueryFmax:
		proto, err := core.NewFmax(f, u, params.Phi)
		if err != nil {
			return nil, err
		}
		proto.SetWorkers(workers)
		p := proto.NewProver()
		return p, observe(p)
	case QueryCircuit:
		proto, err := gkr.NewProtocolFor(f, circuit.Spec{Name: params.Circuit, Arg: params.A}, u, workers)
		if err != nil {
			return nil, err
		}
		// The GKR prover takes a dense input vector, so "replay" means
		// accumulating the stream into the circuit's input table; indices
		// the circuit does not read are outside the statement (see
		// gkr.VerifierSession.Observe).
		input := make([]field.Elem, proto.C.InputSize)
		for _, up := range ups {
			if up.Index >= u {
				return nil, fmt.Errorf("wire: index %d outside universe [0,%d)", up.Index, u)
			}
			if up.Index < uint64(len(input)) {
				input[up.Index] = f.Add(input[up.Index], f.FromInt64(up.Delta))
			}
		}
		return proto.NewProverSession(input)
	default:
		return nil, fmt.Errorf("wire: unknown query kind %d", kind)
	}
}
