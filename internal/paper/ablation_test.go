package paper

import "testing"

func TestAblationTreeMethod(t *testing.T) {
	res, err := AblationTreeMethod()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Baseline > res.Ablated {
		t.Errorf("branching-tree heuristic should not increase CNOTs: %v", res)
	}
}

func TestAblationHookOrientation(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in short mode")
	}
	res, err := AblationHookOrientation(Config{Shots: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Baseline >= res.Ablated {
		t.Errorf("benign hook orientation should reduce the logical error rate: %v", res)
	}
}

func TestAblationDecoderPeeling(t *testing.T) {
	if testing.Short() {
		t.Skip("Monte Carlo in short mode")
	}
	res, err := AblationDecoderPeeling(Config{Shots: 4000, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v", res)
	if res.Baseline >= res.Ablated {
		t.Errorf("peeling decomposition should reduce the logical error rate: %v", res)
	}
}
