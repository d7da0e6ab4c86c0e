//go:build sweep

package core

import (
	"testing"

	"repro/internal/workload"
)

// TestSymmetricSweep is TestSymmetricCopiesProgress over the whole grid:
// every profile × T ∈ {2, 4, 8} × {RR.1.8, ICOUNT.2.8} × seeds 1–3, 144
// runs at the same budgets and under the same progress rule. Each run's T
// contexts run T different programs of the profile (the asid seeds the
// program), so their shares are not 1/T. It takes about 25 s on 2 vCPUs,
// so it is behind a build tag:
//
//	go test -tags sweep -run TestSymmetricSweep ./internal/core
func TestSymmetricSweep(t *testing.T) {
	for _, prof := range workload.Profiles() {
		for _, threads := range []int{2, 4, 8} {
			for _, scheme := range []string{"RR.1.8", "ICOUNT.2.8"} {
				for seed := uint64(1); seed <= 3; seed++ {
					c := symmetricCase{prof.Name, threads, scheme, seed}
					t.Run(c.String(), func(t *testing.T) {
						t.Parallel()
						if got := runSymmetric(t, c, symmetricWarmup, symmetricMeasure); got != "" {
							t.Error(got)
						}
					})
				}
			}
		}
	}
}
