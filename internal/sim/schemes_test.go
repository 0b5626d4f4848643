package sim

import (
	"reflect"
	"strings"
	"testing"
)

func TestSchemeNamesOrder(t *testing.T) {
	want := []string{"Baseline", "INOR", "DNOR", "EHTR"}
	if got := SchemeNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SchemeNames() = %v, want %v", got, want)
	}
	if got := Schemes(); len(got) != len(want) {
		t.Fatalf("Schemes() returned %d entries, want %d", len(got), len(want))
	}
	for _, s := range Schemes() {
		if s.Description == "" {
			t.Errorf("scheme %s has no description", s.Name)
		}
	}
}

func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"DNOR", "dnor", "Dnor"} {
		s, err := SchemeByName(name)
		if err != nil {
			t.Fatalf("SchemeByName(%q): %v", name, err)
		}
		if s.Name != "DNOR" {
			t.Fatalf("SchemeByName(%q).Name = %q", name, s.Name)
		}
	}
	// "static" is a documented alias for the baseline.
	s, err := SchemeByName("static")
	if err != nil {
		t.Fatalf("SchemeByName(static): %v", err)
	}
	if s.Name != "Baseline" {
		t.Fatalf("SchemeByName(static).Name = %q, want Baseline", s.Name)
	}
	_, err = SchemeByName("nope")
	if err == nil {
		t.Fatal("SchemeByName(nope) succeeded")
	}
	for _, name := range SchemeNames() {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-scheme error %q does not list %s", err, name)
		}
	}
}

// TestSchemeNew builds every registered scheme's controller on the
// default rig and checks the controller reports the registry name — the
// invariant the serve API and the sweep column labels rely on.
func TestSchemeNew(t *testing.T) {
	sys := DefaultSystem()
	for _, s := range Schemes() {
		ctrl, err := s.New(sys, SchemeConfig{})
		if err != nil {
			t.Fatalf("scheme %s: New: %v", s.Name, err)
		}
		if ctrl.Name() != s.Name {
			t.Errorf("scheme %s built a controller named %q", s.Name, ctrl.Name())
		}
	}
	if _, err := (Scheme{Name: "empty"}).New(sys, SchemeConfig{}); err == nil {
		t.Error("builder-less scheme New succeeded")
	}
	dnor, _ := SchemeByName("DNOR")
	if _, err := dnor.New(nil, SchemeConfig{}); err == nil {
		t.Error("New(nil system) succeeded")
	}
	if _, err := dnor.New(sys, SchemeConfig{HorizonTicks: -1}); err == nil {
		t.Error("New with negative horizon succeeded")
	}
	if _, err := dnor.New(sys, SchemeConfig{HorizonTicks: MaxHorizonTicks + 1}); err == nil {
		t.Error("New with a horizon beyond MaxHorizonTicks succeeded")
	}
}
