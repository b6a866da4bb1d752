package exec

import (
	"procdecomp/internal/dist"
	"procdecomp/internal/istruct"
)

// scatter is process p's piece of scatterAll.
func scatter(g *istruct.Matrix, d dist.Dist, p int64) (*istruct.Matrix, error) {
	local, errs := scatterAll(g, d, int(p)+1)
	return local[p], errs[p]
}
