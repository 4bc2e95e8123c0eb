package experiment

import (
	"fmt"
	"strings"
	"testing"
)

func TestFlowBias(t *testing.T) {
	tr := testTrace(t)
	r, err := FlowBias(tr)
	if err != nil {
		t.Fatal(err)
	}
	// The title carries the true flow count.
	var trueFlows int
	if _, err := fmt.Sscanf(r.Title()[strings.LastIndex(r.Title(), "(")+1:], "%d true flows", &trueFlows); err != nil {
		t.Fatalf("title %q: %v", r.Title(), err)
	}
	if trueFlows < 50 {
		t.Fatalf("true flows = %d; generator flow diversity too low", trueFlows)
	}
	k, detected, bias := ints(t, r, "granularity"), floats(t, r, "detected_fraction"), floats(t, r, "size_bias")
	// k=1 is the identity: full detection, no bias.
	if detected[0] != 1 || bias[0] != 1 {
		t.Fatalf("k=1 row not identity: %v %v", detected[0], bias[0])
	}
	// Detection collapses monotonically with k; size bias grows.
	for i := 1; i < len(k); i++ {
		if detected[i] >= detected[i-1] {
			t.Errorf("detected fraction not falling at k=%d: %v", k[i], detected)
		}
	}
	last := len(k) - 1
	if detected[last] > 0.2 {
		t.Errorf("1-in-1000 still detects %v of flows", detected[last])
	}
	if bias[last] < 2 {
		t.Errorf("size bias at 1-in-1000 = %v, want large", bias[last])
	}
	out := render(t, r)
	if !strings.Contains(out, "ext-flows") {
		t.Error("render missing id")
	}
}
