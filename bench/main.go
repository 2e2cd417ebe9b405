// Command bench is this repository's benchmark: one command that
// generates each workload from a seed, drives it closed-loop against
// in-process servers over loopback TCP, checks every answer, and prints
// every metric by name with its unit. See README.md in this directory.
//
//	go run ./bench                                  every workload, untraced then traced
//	go run ./bench --workload f2_large --seed 1 --seconds 10 --trace 0
//	go run ./bench -compare old.json new.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// spec mirrors BENCHMARK.json, the contract this command is run by.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fl := flag.NewFlagSet("bench", flag.ContinueOnError)
	workload := fl.String("workload", "", "run one workload and print the result object as the last line (default: every workload, untraced then traced)")
	seed := fl.Uint64("seed", 1, "workload seed: the same seed generates the same inputs")
	seconds := fl.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fl.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	out := fl.String("out", "", "append this run's rows to a result file")
	spans := fl.String("spans", "", "span file a traced run writes (default "+scratchRoot+"/spans-<workload>.json)")
	compare := fl.Bool("compare", false, "compare two result files: bench -compare old.json new.json")
	specPath := fl.String("spec", "BENCHMARK.json", "the benchmark contract: metric names, units and bounds")
	if err := fl.Parse(args); err != nil {
		return err
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		return err
	}
	if *compare {
		if fl.NArg() != 2 {
			return errors.New("-compare takes two result files: old.json new.json")
		}
		return compareFiles(os.Stdout, sp, fl.Arg(0), fl.Arg(1))
	}
	if fl.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %v", fl.Args())
	}
	if *seconds == 0 {
		*seconds = float64(sp.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace takes 0 or 1, got %d", *trace)
	}
	if *workload != "" {
		cfg := runConfig{
			workload: *workload, seed: *seed, seconds: *seconds, traced: *trace == 1,
			sz: fullSizes, setUps: 5, spans: *spans,
		}
		return contractRun(cfg, sp, *out)
	}
	// Every workload, an untraced run for the end-to-end numbers and a
	// traced one for the per-layer numbers — each in a process of its
	// own, as the driver runs them, so that peak RSS and the heap one
	// run leaves behind do not leak into the next.
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var bad []string
	for _, name := range workloadOrder {
		for _, traced := range []string{"0", "1"} {
			cmd := exec.Command(self, "-spec", *specPath, "-workload", name, "-trace", traced,
				"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds), "-out", *out, "-spans", *spans)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				bad = append(bad, fmt.Sprintf("%s --trace %s: %v", name, traced, err))
			}
		}
	}
	if len(bad) > 0 {
		return errors.New(strings.Join(bad, "; "))
	}
	return nil
}

// contractRun is one run as the driver makes it: every metric printed
// by name with its unit, then — as the last line — the result object.
func contractRun(cfg runConfig, sp *spec, out string) error {
	if cfg.traced && cfg.spans == "" {
		cfg.spans = filepath.Join(scratchRoot, "spans-"+cfg.workload+".json")
	}
	res, err := runWorkload(cfg)
	if err != nil {
		return err
	}
	want, got := sp.EndToEnd, res.e2e
	if cfg.traced {
		want, got = sp.PerLayer, res.layer
	}
	if err := res.matches(want, got); err != nil {
		return err
	}
	printRun(res, want, got)
	if out != "" {
		if err := appendRows(out, res); err != nil {
			return err
		}
	}
	line := struct {
		Correct   bool                 `json:"correct"`
		Attempted int                  `json:"attempted"`
		Failed    int                  `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, map[string]valueUnit{}}
	for _, ms := range want {
		line.Metrics[ms.Name] = valueUnit{got[ms.Name].Value, ms.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	if res.failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed the correctness gate, first: %v", cfg.workload, res.failed, res.attempted, res.firstErr)
	}
	return nil
}

type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// matches checks a run emitted exactly the metrics the contract names,
// in the units it names.
func (r *runResult) matches(want []metricSpec, got metrics) error {
	for _, ms := range want {
		m, ok := got[ms.Name]
		if !ok {
			return fmt.Errorf("%s: metric %s named in BENCHMARK.json was not measured", r.cfg.workload, ms.Name)
		}
		if m.Unit != ms.Unit {
			return fmt.Errorf("%s: metric %s measured in %s, BENCHMARK.json says %s", r.cfg.workload, ms.Name, m.Unit, ms.Unit)
		}
	}
	if len(got) != len(want) {
		for name := range got {
			if !hasMetric(want, name) {
				return fmt.Errorf("%s: metric %s is measured but not named in BENCHMARK.json", r.cfg.workload, name)
			}
		}
	}
	return nil
}

func hasMetric(specs []metricSpec, name string) bool {
	for _, ms := range specs {
		if ms.Name == name {
			return true
		}
	}
	return false
}

func printRun(res *runResult, want []metricSpec, got metrics) {
	mode := "untraced"
	if res.cfg.traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed=%d  window=%gs  %s  cpus=%d gomaxprocs=%d %s\n", res.cfg.workload, res.cfg.seed,
		res.cfg.seconds, mode, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	for _, ms := range want {
		m := got[ms.Name]
		fmt.Printf("%-40s %16.6g %-6s n=%d\n", ms.Name, m.Value, m.Unit, m.Samples)
	}
	names := make([]string, 0, len(res.extra))
	for name := range res.extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.extra[name]
		fmt.Printf("%-40s %16.6g %-6s n=%d\n", name, m.Value, m.Unit, m.Samples)
	}
	if n := res.extra["op_ms_p90"].Samples; !res.cfg.traced && n < 100 {
		fmt.Printf("note: op_ms_p90 rests on %d samples (< 100)\n", n)
	}
}

// row is the one schema every result file uses.
type row struct {
	Name       string  `json:"name"`
	Workload   string  `json:"workload"`
	Value      float64 `json:"value"`
	Unit       string  `json:"unit"`
	Samples    int     `json:"samples"`
	Seed       uint64  `json:"seed"`
	DurationS  float64 `json:"duration_s"`
	CPUs       int     `json:"cpus"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	GitSHA     string  `json:"git_sha"`
}

// resultFile is a trajectory: rows accumulate across runs. No gain is
// claimed by the benchmark itself, so claim stays null.
type resultFile struct {
	Claim        *string `json:"claim"`
	Underpowered bool    `json:"underpowered"` // fewer than 2 CPUs: parallel paths cannot show
	Storage      string  `json:"storage"`      // where ingest_evict's data dir lives
	Rows         []row   `json:"rows"`
}

func appendRows(path string, res *runResult) error {
	file := resultFile{Storage: "checkout"}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &file); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	file.Underpowered = file.Underpowered || runtime.NumCPU() < 2
	sha := gitSHA()
	for _, set := range []metrics{res.e2e, res.layer, res.extra} {
		names := make([]string, 0, len(set))
		for name := range set {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			m := set[name]
			file.Rows = append(file.Rows, row{
				Name: name, Workload: res.cfg.workload, Value: m.Value, Unit: m.Unit, Samples: m.Samples,
				Seed: res.cfg.seed, DurationS: res.cfg.seconds, CPUs: runtime.NumCPU(),
				GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(), GitSHA: sha,
			})
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // the driver's checkout is not a git repository
	}
	return strings.TrimSpace(string(out))
}
