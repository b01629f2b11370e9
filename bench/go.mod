// The benchmark is a module of its own so that it builds from its own
// build file and the engine's `go build ./... && go test ./...` never
// depends on it. The module path sits under `repro/` so the engine's
// internal packages stay importable; the replace points at the checkout
// this directory lives in.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
