// The benchmark is a module of its own so that the repository's
// `go build ./... && go test ./...` neither builds nor runs it; the
// module path keeps the accelcloud/ prefix, which is what lets it import
// accelcloud/internal/... through the replace below.
module accelcloud/benchmark

go 1.24

require accelcloud v0.0.0

replace accelcloud => ../
