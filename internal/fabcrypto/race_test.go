//go:build race

package fabcrypto

func init() { raceDetector = true }
