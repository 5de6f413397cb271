// The benchmark is a module of its own so that it builds from its own
// build file and the root module's build, vet and lint never see it. The
// module path keeps the repro/ prefix, which is what lets it import
// repro/internal/...; the replace points at the checkout it sits in.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
