//go:build race

package gen

func init() { raceDetector = true }
