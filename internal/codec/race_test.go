//go:build race

package codec

// Under the race detector sync.Pool drops a quarter of what it is handed,
// on purpose, so allocation counts through the stock of work vectors are
// not pinned there.
const raceDetector = true
