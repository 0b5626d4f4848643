package battery

import (
	"math"
	"testing"
)

func TestNewLeadAcid(t *testing.T) {
	b, err := NewLeadAcid(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if b.SoC != 0.5 || b.FloatVoltage != 13.8 {
		t.Errorf("battery = %+v", b)
	}
	if _, err := NewLeadAcid(-0.1); err == nil {
		t.Error("negative SoC should error")
	}
	if _, err := NewLeadAcid(1.1); err == nil {
		t.Error("SoC > 1 should error")
	}
}

func TestAcceptIntegratesWithEfficiency(t *testing.T) {
	b, _ := NewLeadAcid(0.5)
	stored, err := b.Accept(100, 10) // 1 kJ at 90% → 900 J
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(stored-900) > 1e-9 {
		t.Errorf("stored = %v, want 900", stored)
	}
	if math.Abs(b.AbsorbedJoules()-900) > 1e-9 {
		t.Errorf("absorbed = %v", b.AbsorbedJoules())
	}
	if b.SoC <= 0.5 {
		t.Error("SoC did not rise")
	}
}

func TestAcceptRespectsCapacity(t *testing.T) {
	b, _ := NewLeadAcid(1.0)
	stored, err := b.Accept(1000, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if stored != 0 {
		t.Errorf("full battery stored %v J", stored)
	}
	if b.SoC != 1 {
		t.Errorf("full battery's SoC moved to %v", b.SoC)
	}
}

func TestAcceptNearFullClamps(t *testing.T) {
	b, _ := NewLeadAcid(0.999999)
	room := (1 - b.SoC) * b.CapacityWh * 3600
	stored, err := b.Accept(1e6, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if stored > room+1e-6 {
		t.Errorf("stored %v exceeds room %v", stored, room)
	}
	if b.SoC > 1+1e-12 {
		t.Errorf("SoC overshot: %v", b.SoC)
	}
}

func TestAcceptRejectsNegative(t *testing.T) {
	b, _ := NewLeadAcid(0.5)
	if _, err := b.Accept(-1, 1); err == nil {
		t.Error("negative power should error")
	}
	if _, err := b.Accept(1, -1); err == nil {
		t.Error("negative dt should error")
	}
}
