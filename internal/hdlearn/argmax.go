package hdlearn

// The serving tie rule lives here and nowhere else: on equal scores the
// LOWEST class index wins (strict-> comparison, ascending scan). Both of the
// engine tail's data flows finish through this one helper.

// ArgmaxInto writes each row's argmax of scores ([n, k], row-major) into
// preds: float64 cosine totals on the float data flow, int32 popcount dots on
// the sign-word one (every sign-quantized class row has norm √D, so the dots
// compare directly).
func ArgmaxInto[S int32 | float64](preds []int, scores []S, n, k int) {
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
