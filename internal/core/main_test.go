package core

import (
	"os"
	"testing"

	"repro/internal/lint/leakcheck"
)

// Core tests exercise engines, concurrent searches, admission pools and
// durable stores; leakcheck fails the run if any goroutine — a search
// worker, a store's background compaction, an unclosed overlay —
// survives the tests.
func TestMain(m *testing.M) { os.Exit(leakcheck.Main(m)) }

// counted sums one of the engine's registry counters over its labels.
func counted(eng *Engine, name string) uint64 {
	return eng.Metrics().Snapshot().CounterSum(name)
}
