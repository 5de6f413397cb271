package core

import (
	"sync"
	"testing"
)

// BenchmarkAudit is one in-process replica audit: the sweep takes every
// member's census over the in-process transport and checks each key's
// replica set in memory. The fixture — 28 members, R = 3, 400 documents,
// 31 148 distinct keys — is built once and never changes, so every
// iteration sweeps the same intact store.
func BenchmarkAudit(b *testing.B) {
	eng := auditFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := eng.AuditReplicas()
		if err != nil || !st.FullyReplicated() {
			b.Fatalf("audit %+v, %v", st, err)
		}
	}
}

var auditOnce struct {
	sync.Once
	eng *Engine
	err error
}

func auditFixture(b *testing.B) *Engine {
	b.Helper()
	auditOnce.Do(func() {
		col := testCollection(b, 400)
		cfg := testConfig(col, 8)
		cfg.ReplicationFactor = 3
		auditOnce.eng = buildEngine(b, col, 28, cfg)
		auditOnce.err = auditOnce.eng.BuildIndex()
	})
	if auditOnce.err != nil {
		b.Fatal(auditOnce.err)
	}
	return auditOnce.eng
}
