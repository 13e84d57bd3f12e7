//go:build race

package btree

func init() { raceDetector = true }
