//go:build race

package conflictgraph

func init() { raceDetector = true }
