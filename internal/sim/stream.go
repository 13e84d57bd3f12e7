package sim

import "math/rand"

// The lags of math/rand's additive lagged Fibonacci generator:
// y[n] = y[n-streamLen] + y[n-streamTap] mod 2^64.
const (
	streamLen = 607
	streamTap = 273
)

// stream is math/rand's generator held as its next streamLen outputs
// rather than as a feedback register walked by two cursors, so that a
// hot loop can read its draws from an array: PermPrefix keeps the read
// position in a local and calls neither rand.Rand nor a rand.Source.
// It is a rand.Source64 producing exactly rand.NewSource(seed)'s values.
type stream struct {
	buf [streamLen]uint64
	pos int // next unread output in buf; streamLen means refill first
}

// Seed restarts s at the stream of rand.NewSource(seed). That source's
// first streamLen outputs are the recurrence's first streamLen terms,
// so there is no seeding arithmetic to reproduce and no state to invert.
func (s *stream) Seed(seed int64) {
	src := rand.NewSource(seed).(rand.Source64)
	for i := range s.buf {
		s.buf[i] = src.Uint64()
	}
	s.pos = 0
}

// refill replaces buf's outputs y[n..n+streamLen) with the next ones:
// term n+i is term i (the slot it overwrites) plus term i+streamLen-
// streamTap, which for i >= streamTap has wrapped to slot i-streamTap,
// a slot this refill has already replaced.
func (s *stream) refill() {
	for i := 0; i < streamTap; i++ {
		s.buf[i] += s.buf[i+streamLen-streamTap]
	}
	for i := streamTap; i < streamLen; i++ {
		s.buf[i] += s.buf[i-streamTap]
	}
}

// Uint64 returns the next output.
func (s *stream) Uint64() uint64 {
	if s.pos == streamLen {
		s.refill()
		s.pos = 0
	}
	v := s.buf[s.pos]
	s.pos++
	return v
}

// Int63 returns the next output with its top bit cleared, as
// math/rand's source does.
func (s *stream) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }
