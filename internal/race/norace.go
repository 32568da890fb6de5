//go:build !race

// Package race reports whether the binary was built with the race
// detector, for tests whose measurements the detector distorts: it
// instruments memory accesses and allocates shadow state, so allocation
// counts and fine-grained timings mean nothing under it.
package race

// Enabled is true when built with -race.
const Enabled = false
