package polybench

import "testing"

// TestParametricKernelsInstantiateLikeConcrete checks that every parametric
// kernel builds a valid parametric program with a concrete registry
// counterpart. The concrete gemm, trmm and jacobi-2d entries are themselves
// built by instantiating these programs, so comparing the two would compare
// a call with itself; the golden fixtures pin the instantiated kernels.
func TestParametricKernelsInstantiateLikeConcrete(t *testing.T) {
	for _, pk := range ParametricKernels() {
		pk := pk
		t.Run(pk.Name, func(t *testing.T) {
			if _, ok := ByName(pk.Name); !ok {
				t.Fatalf("parametric kernel %s has no concrete counterpart", pk.Name)
			}
			prog := pk.Build()
			if !prog.IsParametric() {
				t.Fatal("parametric kernel built a non-parametric program")
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
		})
	}
}

// TestParametricRegistryLookups covers the registry helpers.
func TestParametricRegistryLookups(t *testing.T) {
	names := ParametricNames()
	if len(names) == 0 {
		t.Fatal("no parametric kernels registered")
	}
	for _, want := range []string{"gemm", "trmm", "jacobi-2d"} {
		if _, ok := ParametricByName(want); !ok {
			t.Errorf("parametric kernel %s not registered", want)
		}
	}
	if _, ok := ParametricByName("no-such-kernel"); ok {
		t.Error("lookup of unknown kernel succeeded")
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Errorf("names not sorted: %v", names)
		}
	}
}
