package experiments

import (
	"reflect"
	"testing"
)

// TestOracleKnobIdentity pins the Oracle knob's contract across the
// figure runners: the default event-driven core produces exactly the
// same typed rows — outputs, cycles, stats, speedup ratios — as the
// issuer's reference mode, so Oracle is purely a differential A/B
// switch. Fig. 9 walks the whole optimization ladder (every schedule
// family and both timing presets), Fig. 8 adds the ideal baseline
// normalization, and the fault campaign drives whole-model serving with
// scrub traffic between inferences.
func TestOracleKnobIdentity(t *testing.T) {
	event := fastConfig()
	oracle := fastConfig()
	oracle.Oracle = true

	t.Run("fig9", func(t *testing.T) {
		eRows, eMeans, err := event.Fig9()
		if err != nil {
			t.Fatal(err)
		}
		oRows, oMeans, err := oracle.Fig9()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eRows, oRows) || !reflect.DeepEqual(eMeans, oMeans) {
			t.Fatalf("fig9 differs:\nevent:  %+v %+v\noracle: %+v %+v", eRows, eMeans, oRows, oMeans)
		}
	})

	t.Run("fig8-layers", func(t *testing.T) {
		eRows, eSum, err := event.Fig8Layers()
		if err != nil {
			t.Fatal(err)
		}
		oRows, oSum, err := oracle.Fig8Layers()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(eRows, oRows) || eSum != oSum {
			t.Fatalf("fig8 differs:\nevent:  %+v %+v\noracle: %+v %+v", eRows, eSum, oRows, oSum)
		}
	})

	t.Run("fault-campaign", func(t *testing.T) {
		ec := faultCfg()
		ec.FaultBERs = []float64{1e-6, 1e-4}
		ec.FaultMaxPerWord = 1
		oc := ec
		oc.Oracle = true
		ePts, eSum, err := ec.FaultCampaign()
		if err != nil {
			t.Fatal(err)
		}
		oPts, oSum, err := oc.FaultCampaign()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ePts, oPts) || eSum != oSum {
			t.Fatalf("fault campaign differs:\nevent:  %+v %+v\noracle: %+v %+v", ePts, eSum, oPts, oSum)
		}
	})
}
