package stats

import "testing"

func TestBoxplotBasic(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	b, err := NewBoxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if b.Median != 5 || b.Q1 != 3 || b.Q3 != 7 {
		t.Fatalf("quartiles wrong: %+v", b)
	}
	if b.LowWhisker != 1 || b.HighWhisker != 9 {
		t.Fatalf("whiskers wrong: %+v", b)
	}
	if len(b.Outliers) != 0 {
		t.Fatalf("unexpected outliers: %v", b.Outliers)
	}
}

func TestBoxplotOutliers(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b, err := NewBoxplot(xs)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Fatalf("outliers = %v", b.Outliers)
	}
	if b.HighWhisker == 100 {
		t.Fatal("whisker should not reach outlier")
	}
}

func TestBoxplotEmpty(t *testing.T) {
	if _, err := NewBoxplot(nil); err != ErrEmpty {
		t.Fatal("empty boxplot should fail")
	}
}

func TestBoxplotSingle(t *testing.T) {
	b, err := NewBoxplot([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Median != 5 || b.LowWhisker != 5 || b.HighWhisker != 5 || b.Mean != 5 {
		t.Fatalf("single boxplot: %+v", b)
	}
}
