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
		experiment, replicas, want string
	}{
		{"table2", "1,2", "-replicas"},
		{"fig2", "2", "-replicas"},
		{"fig8", "3", "-replicas"},
		{"fig3", "1", "-replicas"},
		{"all", "1", "-replicas"},
		{"nosuch", "", "unknown experiment"},
		{"fig8", "", ""},
		{"table2", "", ""},
	}
	for _, c := range cases {
		err := run("small", c.experiment, c.replicas, "")
		if c.want == "" {
			if err != nil {
				t.Errorf("-experiment %s -replicas %q: %v", c.experiment, c.replicas, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("-experiment %s -replicas %q: err = %v, want a rejection naming %s", c.experiment, c.replicas, err, c.want)
		}
	}
}
