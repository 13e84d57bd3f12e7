//go:build race

package fabric

func init() { raceDetector = true }
