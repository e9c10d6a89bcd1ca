package ds

import (
	"testing"
	"testing/quick"
)

func TestSymMatrixSymmetry(t *testing.T) {
	m := NewSymMatrix(5)
	m.Set(1, 3, 7)
	if got := m.At(3, 1); got != 7 {
		t.Errorf("At(3,1) = %d, want 7 (symmetry)", got)
	}
	if got := m.At(2, 2); got != 0 {
		t.Errorf("diagonal At(2,2) = %d, want 0", got)
	}
	m.Set(3, 1, m.At(3, 1)+3)
	if got := m.At(1, 3); got != 10 {
		t.Errorf("Set not reflected: At(1,3) = %d, want 10", got)
	}
}

func TestSymMatrixDiagonalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic setting diagonal")
		}
	}()
	NewSymMatrix(3).Set(1, 1, 5)
}

func TestSymMatrixMaxTotal(t *testing.T) {
	m := NewSymMatrix(4)
	m.Set(0, 1, 3)
	m.Set(2, 3, 9)
	m.Set(0, 3, 1)
	if got := m.Max(); got != 9 {
		t.Errorf("Max = %d, want 9", got)
	}
	if got := m.Total(); got != 13 {
		t.Errorf("Total = %d, want 13", got)
	}
}

func TestSymMatrixQuickIndexBijection(t *testing.T) {
	// Property: every unordered pair maps to a distinct storage slot.
	f := func(n8 uint8) bool {
		n := int(n8%20) + 2
		m := NewSymMatrix(n)
		seen := map[int]bool{}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				idx := m.index(i, j)
				if idx < 0 || idx >= len(m.data) || seen[idx] {
					return false
				}
				seen[idx] = true
			}
		}
		return len(seen) == n*(n-1)/2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSymMatrixClone(t *testing.T) {
	m := NewSymMatrix(3)
	m.Set(0, 2, 4)
	c := m.Clone()
	c.Set(0, 2, 1)
	if m.At(0, 2) != 4 {
		t.Error("Clone shares storage")
	}
}

func TestSymMatrixFBasics(t *testing.T) {
	m := NewSymMatrixF(4)
	m.Set(0, 3, 0.5)
	if got := m.At(3, 0); got != 0.5 {
		t.Errorf("At(3,0) = %f, want 0.5 (symmetry)", got)
	}
	if got := m.At(2, 2); got != 0 {
		t.Errorf("diagonal = %f, want 0", got)
	}
	m.Set(1, 2, 0.9)
	if got := m.Max(); got != 0.9 {
		t.Errorf("Max = %f, want 0.9", got)
	}
}

func TestSymMatrixFDiagonalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic setting diagonal")
		}
	}()
	NewSymMatrixF(3).Set(2, 2, 1)
}
