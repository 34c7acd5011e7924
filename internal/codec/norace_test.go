//go:build !race

package codec

const raceDetector = false
