package experiments

import (
	"reflect"
	"runtime"
	"testing"

	"newton/internal/nn"
	"newton/internal/workloads"
)

// TestSerialKnobIdentity pins the Serial knob's contract: the default
// (parallel channels, parallel sweep points) produces exactly the same
// typed rows as the forced-serial reference path, so Serial is purely a
// wall-clock A/B switch. Run under -race by make check, this doubles as
// the race detector's view of the sweep-level fan-out.
func TestSerialKnobIdentity(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
		runtime.GOMAXPROCS(4) // force real fan-out even on small CI boxes
	}
	serial := fastConfig()
	serial.Serial = true
	parallel := fastConfig()

	t.Run("fig8-layers", func(t *testing.T) {
		sRows, sSum, err := serial.Fig8Layers()
		if err != nil {
			t.Fatal(err)
		}
		pRows, pSum, err := parallel.Fig8Layers()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sRows, pRows) || sSum != pSum {
			t.Fatalf("fig8 differs:\nserial:   %+v %+v\nparallel: %+v %+v", sRows, sSum, pRows, pSum)
		}
	})

	t.Run("fig9", func(t *testing.T) {
		sRows, sMeans, err := serial.Fig9()
		if err != nil {
			t.Fatal(err)
		}
		pRows, pMeans, err := parallel.Fig9()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sRows, pRows) || !reflect.DeepEqual(sMeans, pMeans) {
			t.Fatalf("fig9 differs:\nserial:   %+v %+v\nparallel: %+v %+v", sRows, sMeans, pRows, pMeans)
		}
	})

	// Whole-model ISR inference: masked instructions fan their channels
	// out on the controller's worker pool, and the checker watches every
	// channel's command stream.
	t.Run("e2e", func(t *testing.T) {
		sc, pc := serial, parallel
		sc.Verify, pc.Verify = true, true
		models := []nn.Model{workloads.DLRM()}
		sRows, sMean, err := sc.E2E(models)
		if err != nil {
			t.Fatal(err)
		}
		pRows, pMean, err := pc.E2E(models)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sRows, pRows) || sMean != pMean {
			t.Fatalf("e2e differs:\nserial:   %+v %v\nparallel: %+v %v", sRows, sMean, pRows, pMean)
		}
	})

	t.Run("fault-campaign", func(t *testing.T) {
		sc := faultCfg()
		sc.FaultBERs = []float64{1e-6, 1e-4}
		sc.FaultMaxPerWord = 1
		pc := sc
		sc.Serial = true
		sPts, sSum, err := sc.FaultCampaign()
		if err != nil {
			t.Fatal(err)
		}
		pPts, pSum, err := pc.FaultCampaign()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(sPts, pPts) || sSum != pSum {
			t.Fatalf("fault campaign differs:\nserial:   %+v %+v\nparallel: %+v %+v", sPts, sSum, pPts, pSum)
		}
	})
}
