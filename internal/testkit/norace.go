//go:build !race

package testkit

// Race reports whether the race detector is compiled in. Allocation
// budgets skip themselves under it: its instrumentation allocates.
const Race = false
