// Designspace: use the library the way an architect would - sweep the
// two die-cost knobs the paper weighs (bank count and the tFAW the
// strengthened voltage regulators buy, §III-D/§V-C) and print the
// speedup surface over the ideal non-PIM bound next to the §III-F
// model's closed-form prediction. The Amdahl structure is visible at a
// glance: more banks raise the ceiling, a tighter tFAW moves you toward
// it, and the two interact (wide configurations need the tFAW spend
// more).
package main

import (
	"fmt"
	"log"

	"newton"
)

func main() {
	log.SetFlags(0)

	banks := []int{8, 16, 32}
	// Abstract tFAW choices via the preset toggle: conventional window
	// vs the paper's regulator-strengthened one.
	fmt.Println("Newton speedup over Ideal Non-PIM (measured | model), GNMT-s1, 24 channels")
	fmt.Println()
	fmt.Printf("%-22s", "tFAW \\ banks")
	for _, b := range banks {
		fmt.Printf("  %12d", b)
	}
	fmt.Println()

	for _, aggressive := range []bool{false, true} {
		label := "conventional (32ns)"
		if aggressive {
			label = "aggressive   (18ns)"
		}
		fmt.Printf("%-22s", label)
		for _, b := range banks {
			cfg := newton.DefaultConfig()
			cfg.Banks = b
			cfg.Opts.AggressiveTFAW = aggressive

			sys, err := newton.NewSystem(cfg)
			if err != nil {
				log.Fatal(err)
			}
			base, err := newton.NewIdealBaseline(cfg)
			if err != nil {
				log.Fatal(err)
			}

			weights := newton.RandomMatrix(4096, 1024, 1)
			spm, err := sys.Load(weights)
			if err != nil {
				log.Fatal(err)
			}
			bpm, err := base.Load(weights)
			if err != nil {
				log.Fatal(err)
			}
			input := make([]float32, 1024)
			for i := range input {
				input[i] = float32(i%5) / 5
			}
			_, sst, err := sys.MatVec(spm, input)
			if err != nil {
				log.Fatal(err)
			}
			_, bst, err := base.MatVec(bpm, input)
			if err != nil {
				log.Fatal(err)
			}
			measured := float64(bst.Cycles) / float64(sst.Cycles)
			predicted, _ := newton.Predict(cfg)
			fmt.Printf("  %5.2f | %4.2f", measured, predicted)
		}
		fmt.Println()
	}

	fmt.Println()
	fmt.Println("More banks raise compute bandwidth linearly; the activation window")
	fmt.Println("is the Amdahl tax, so the regulator spend (aggressive tFAW) pays")
	fmt.Println("off most exactly where the paper put it: wide, many-bank designs.")
}
