package main

import (
	"strings"
	"testing"
)

// TestRunRejectsIgnoredFlags pins that hdkbench refuses a flag the chosen
// experiment would ignore, and does so before any sweep runs: without the
// rejection every case would print its table and succeed. The analytic
// experiments without extra flags still run.
func TestRunRejectsIgnoredFlags(t *testing.T) {
	cases := []struct {
		experiment, replicas string
		set                  []string
		want                 string
	}{
		{"fig8", "", []string{"kill"}, "-kill"},
		{"fig2", "", []string{"kill"}, "-kill"},
		{"table2", "", []string{"kill"}, "-kill"},
		{"fig3", "", []string{"kill"}, "-kill"},
		{"all", "", []string{"kill"}, "-kill"},
		{"table2", "1,2", []string{"replicas"}, "-replicas"},
		{"fig2", "2", []string{"replicas"}, "-replicas"},
		{"fig8", "3", []string{"replicas"}, "-replicas"},
		{"fig7", "", []string{"seed"}, "-seed"},
		{"avail", "", []string{"replay"}, "-replay"},
		{"fig8", "", nil, ""},
		{"table2", "", []string{"scale"}, ""},
	}
	for _, c := range cases {
		set := make(map[string]bool)
		for _, name := range c.set {
			set[name] = true
		}
		err := run("small", c.experiment, c.replicas, "", "", 0.5, 1, false, false, true, set)
		if c.want == "" {
			if err != nil {
				t.Errorf("-experiment %s with %v: %v", c.experiment, c.set, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-experiment %s with %v: err = %v, want a rejection naming %s", c.experiment, c.set, err, c.want)
		}
	}
}
