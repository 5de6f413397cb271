// Package repro is a from-scratch Go reproduction of "Scalable
// Peer-to-Peer Web Retrieval with Highly Discriminative Keys" (Podnar,
// Rajman, Luu, Klemm, Aberer — ICDE 2007).
//
// The library implements the paper's indexing/retrieval model (HDK keys
// over a structured P2P overlay) together with every substrate it needs:
// text processing, Zipf analysis, a synthetic web-like corpus, posting
// lists, BM25 ranking, a consistent-hashing DHT whose owners resolve
// from one membership view over in-process and TCP transports, the
// single-term baselines (a centralized BM25 reference, and the engine
// itself at smax 1 as the distributed single-term index), the Section 4
// scalability analysis, and an
// experiment harness regenerating every table and figure of the
// evaluation. internal/replica adds the availability layer the
// prototype inherited from P-Grid: search failover along the ring's
// R-way successor lists and churn repair that restores coverage after
// node crashes without re-indexing.
//
// The system also runs as an actual distributed program: cmd/hdknode is
// a daemon serving one peer's index store over transport.TCP — a pooled,
// deadline-aware transport with per-address idle connection reuse — and
// internal/transport/cluster provides the one-hop client fabric that
// lets the unchanged engine build and query a cluster of separate OS
// processes (hdksearch -connect). internal/durable
// gives the daemons disk-backed stores (CRC-guarded snapshots plus an
// append-only op log with threshold compaction), so a killed process
// restarts warm: it restores its store fraction from its data directory,
// rejoins on its original ring position, and pulls only the delta it
// missed instead of re-indexing or re-replicating.
//
// Every daemon is also a query coordinator: the hdk.search RPC runs the
// engine's level-parallel lattice traversal node-side — one RPC per
// query from a thin client (hdksearch -connect -coordinator), with
// replica failover, a worker-pool admission bound and a per-node
// query-result cache that locally served index mutations invalidate
// (core.Coordinator + cluster.Server). Coordinated answers are verified
// bit-identical to the in-process engine's by a CI gate against real
// child processes.
//
// ARCHITECTURE.md maps the paper's sections onto the packages and walks
// a coordinated query and an insert through the system. See README.md
// for build, test and benchmark instructions, an overview of the
// batched query path, the replication/failure model, "Running a real
// cluster", "Durability", and the cluster operations guide.
//
// The root package only anchors the repository-level benchmarks in
// bench_test.go; the implementation lives under internal/.
package repro
