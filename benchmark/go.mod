// The benchmark is a module of its own, so it builds without touching the
// repository's build file. Its path sits under the repository's module
// path, which is what lets it import chopper/internal/...; the replace
// points at the checkout it is run from.
module chopper/benchmark

go 1.22

require chopper v0.0.0

replace chopper => ../
