//go:build race

package netem

func init() { raceDetector = true }
