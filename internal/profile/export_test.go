package profile

// StrideFraction returns the fraction of consecutive reference pairs whose
// absolute address delta falls in [lo, hi] bytes.
func (a *Analysis) StrideFraction(lo, hi uint64) float64 {
	if a.MemRefs < 2 {
		return 0
	}
	var count uint64
	for b := log2Bucket(lo); b <= log2Bucket(hi) && b < 33; b++ {
		count += a.strideHist.Bucket(b)
	}
	return float64(count) / float64(a.MemRefs-1)
}
