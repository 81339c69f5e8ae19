package hdlearn

// The serving tie rule lives here and nowhere else: on equal scores the
// LOWEST class index wins (strict-> comparison, ascending scan). Both of the
// engine tail's data flows finish through these two helpers.

// ArgmaxInto writes each row's argmax of scores ([n, k] float64, row-major)
// into preds — the float data flow's final step.
func ArgmaxInto(preds []int, scores []float64, n, k int) {
	for i := 0; i < n; i++ {
		row := scores[i*k : (i+1)*k]
		best, at := row[0], 0
		for c := 1; c < k; c++ {
			if row[c] > best {
				best, at = row[c], c
			}
		}
		preds[i] = at
	}
}

// ArgmaxScaledInto is the sign-word data flow's final step: per row of
// integer dots ([n, k]), the argmax of float64(scales[c])·float64(dots[c])
// for a sub-byte scorer, or of the dots themselves when scales is nil (the
// 1-bit popcount scorer, whose rows share one norm). The int32→float64
// conversion is exact.
func ArgmaxScaledInto(preds []int, dots []int32, scales []float32, n, k int) {
	for i := 0; i < n; i++ {
		row := dots[i*k : (i+1)*k]
		at := 0
		if scales == nil {
			for c := 1; c < k; c++ {
				if row[c] > row[at] {
					at = c
				}
			}
		} else {
			best := float64(scales[0]) * float64(row[0])
			for c := 1; c < k; c++ {
				if sc := float64(scales[c]) * float64(row[c]); sc > best {
					best, at = sc, c
				}
			}
		}
		preds[i] = at
	}
}
