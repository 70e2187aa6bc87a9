// The benchmark is a module of its own so that the root module's
// `go build ./...`, `go vet ./...` and `go test ./...` neither build nor
// depend on it. Its import path keeps the `repro/` prefix, which is what
// lets it import repro/internal/... packages.
module repro/bench

go 1.24

require repro v0.0.0

replace repro => ../
