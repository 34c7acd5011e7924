//go:build race

// Package race reports whether the binary was built with the race detector,
// for the tests that pin allocation counts through a sync.Pool: under the
// detector a Pool drops a quarter of what it is handed, on purpose, so those
// counts are not pinned there.
package race

// Enabled is true under -race.
const Enabled = true
