package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// compareFiles prints one row per (end-to-end metric, workload) present
// in both result files and fails on any "worse". A file may hold many
// runs; a side's value is the median of its runs and its spread the
// interquartile range over that median. A pair is
//
//	unresolved  when either side's spread is wider than the metric's bound
//	worse       when new's median is worse than old's by more than the bound
//	better      when it is better by more than the bound
//	same        otherwise
//
// with the bounds taken from BENCHMARK.json.
func compareFiles(w io.Writer, sp *spec, oldPath, newPath string) error {
	olds, err := loadRows(oldPath)
	if err != nil {
		return err
	}
	news, err := loadRows(newPath)
	if err != nil {
		return err
	}
	worse := 0
	fmt.Fprintf(w, "%-22s %-20s %14s %14s %9s %8s %8s  %s\n", "metric", "workload", "old", "new", "change", "spread", "bound", "verdict")
	for _, ms := range sp.EndToEnd {
		for _, wl := range sp.Workloads {
			key := [2]string{ms.Name, wl.Name}
			o, n := olds[key], news[key]
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			om, nm := median(o), median(n)
			// change > 0 means new is worse.
			change := (nm - om) / om
			if ms.Better == "higher" {
				change = -change
			}
			spread := max(iqrShare(o), iqrShare(n))
			verdict := "same"
			switch {
			case spread > ms.Bound:
				verdict = "unresolved"
			case change > ms.Bound:
				verdict = "worse"
				worse++
			case change < -ms.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-22s %-20s %14.6g %14.6g %+8.2f%% %7.2f%% %7.2f%%  %s\n",
				ms.Name, wl.Name, om, nm, 100*change, 100*spread, 100*ms.Bound, verdict)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric/workload pairs got worse by more than their bound", worse)
	}
	return nil
}

func loadRows(path string) (map[[2]string][]float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var file resultFile
	if err := json.Unmarshal(b, &file); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(file.Rows) == 0 {
		return nil, errors.New(path + ": no rows")
	}
	out := map[[2]string][]float64{}
	for _, r := range file.Rows {
		key := [2]string{r.Name, r.Workload}
		out[key] = append(out[key], r.Value)
	}
	return out, nil
}

// iqrShare is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(xs, n=4) gives — the rule the driver applies.
// Fewer than two values have no spread.
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	q := func(i int) float64 {
		const n = 4
		m := len(s) + 1
		j := min(max(i*m/n, 1), len(s)-1)
		delta := float64(i*m - j*n)
		return (s[j-1]*(n-delta) + s[j]*delta) / n
	}
	med := q(2)
	if med == 0 {
		return 0
	}
	return (q(3) - q(1)) / med
}
