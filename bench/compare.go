package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// record is one run as -record keeps it, one JSON object per line.
type record struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Metrics  map[string]float64 `json:"metrics"`
}

func appendRecord(path string, r *result, shown []metric) error {
	rec := record{Workload: r.workload, Seed: r.seed, Metrics: map[string]float64{}}
	for _, m := range shown {
		rec.Metrics[m.name] = r.metrics[m.name]
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(append(line, '\n'))
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readRecords groups a -record file's values by workload and metric.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]map[string][]float64{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if out[rec.Workload] == nil {
			out[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			out[rec.Workload][name] = append(out[rec.Workload][name], v)
		}
	}
	return out, sc.Err()
}

// benchSpec is the part of BENCHMARK.json the comparison needs.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the exclusive method),
// which is how the benchmark's contract defines a metric's spread.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		delta := i*(n+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vs []float64) float64 {
	q1, q3 := quartiles(vs)
	return (q3 - q1) / median(vs)
}

// Verdicts of one metric × workload row.
const (
	verdictBetter     = "better"
	verdictUnchanged  = "unchanged"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // the runs of one side spread wider than the bound
)

// verdict applies one metric's bound to the two sides' runs: the change
// is the candidate's median against the base's, as a share of the base,
// signed so that positive is worse.
func verdict(base, cand []float64, higherBetter bool, bound float64) (string, float64) {
	mb, mc := median(base), median(cand)
	change := (mc - mb) / mb
	if higherBetter {
		change = -change
	}
	switch {
	case spread(base) > bound || spread(cand) > bound:
		return verdictUnresolved, change
	case change > bound:
		return verdictWorse, change
	case change < -bound:
		return verdictBetter, change
	}
	return verdictUnchanged, change
}

// compareFiles prints one row per end-to-end metric and workload and
// reports whether any row is worse or unresolved.
func compareFiles(w io.Writer, specPath, basePath, candPath string) (bool, error) {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return false, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return false, fmt.Errorf("%s: %w", specPath, err)
	}
	base, err := readRecords(basePath)
	if err != nil {
		return false, err
	}
	cand, err := readRecords(candPath)
	if err != nil {
		return false, err
	}
	bad := false
	fmt.Fprintf(w, "%-16s %-24s %5s %14s %14s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "runs", "base median", "cand median", "cand/base", "spread_b", "spread_c", "bound", "verdict")
	for _, wl := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			b, c := base[wl.Name][m.Name], cand[wl.Name][m.Name]
			if len(b) == 0 || len(c) == 0 {
				continue
			}
			v, _ := verdict(b, c, m.Better == "higher", m.Bound)
			if v == verdictWorse || v == verdictUnresolved {
				bad = true
			}
			fmt.Fprintf(w, "%-16s %-24s %2d/%-2d %14.4f %14.4f %8.4f %8.4f %8.4f %6.3f  %s\n",
				wl.Name, m.Name, len(b), len(c), median(b), median(c), median(c)/median(b), spread(b), spread(c), m.Bound, v)
		}
	}
	return bad, nil
}
