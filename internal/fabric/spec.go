package fabric

import "math"

// inRange reports whether x is a number in [lo, hi]; NaN is in no
// range.
func inRange(x, lo, hi float64) bool { return x >= lo && x <= hi }

// finiteNonNeg reports whether x is a finite number >= 0.
func finiteNonNeg(x float64) bool { return inRange(x, 0, math.MaxFloat64) }
