//go:build race

package chaincode

func init() { raceDetector = true }
