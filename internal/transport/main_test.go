package transport

import (
	"os"
	"testing"

	"repro/internal/lint/leakcheck"
)

// Every transport test must wind down its dials, pools and listeners:
// a goroutine that outlives the run is a missed Close on a path the
// test just exercised.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }

// poolStats is a transport's pool counters, read off the registry it
// records into.
type poolStats struct{ Dials, Reuses, StaleRetries, IdleDropped uint64 }

func pool(t *TCP) poolStats {
	m := t.metrics.Load()
	return poolStats{m.dials.Value(), m.reuses.Value(), m.staleRetries.Value(), m.idleDropped.Value()}
}
