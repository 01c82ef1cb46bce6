package experiments

import (
	"context"
	"math"
	"strings"
	"testing"
)

func TestTableRendering(t *testing.T) {
	tbl := &Table{Title: "T", Header: []string{"a", "bbbb"}, Notes: []string{"n"}}
	tbl.AddRow("x", "y")
	out := tbl.String()
	for _, want := range []string{"T\n", "a", "bbbb", "x", "y", "note: n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if F(1.2345, 2) != "1.23" {
		t.Fatal("F wrong")
	}
	if Pct(0.123) != "+12.3%" || Pct(-0.07) != "-7.0%" {
		t.Fatalf("Pct wrong: %s %s", Pct(0.123), Pct(-0.07))
	}
}

func TestTableISmoke(t *testing.T) {
	tbl := TableI()
	if len(tbl.Rows) != 6 {
		t.Fatalf("Table I rows %d", len(tbl.Rows))
	}
}

func TestTableIISmoke(t *testing.T) {
	tbl := TableII()
	if len(tbl.Rows) != 4 {
		t.Fatalf("Table II rows %d", len(tbl.Rows))
	}
}

func TestTableIIIReproduction(t *testing.T) {
	rows, err := TableIIIData()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper values (Tj, turbo) per (platform, cooling).
	want := []struct{ tj, turbo float64 }{
		{92, 3.1}, {75, 3.2}, {90, 2.6}, {68, 2.7},
	}
	for i, r := range rows {
		if math.Abs(r.TjC-want[i].tj) > 2 {
			t.Errorf("row %d Tj %v, want %v±2", i, r.TjC, want[i].tj)
		}
		if math.Abs(r.MaxTurboGHz-want[i].turbo) > 1e-9 {
			t.Errorf("row %d turbo %v, want %v", i, r.MaxTurboGHz, want[i].turbo)
		}
	}
	if _, err := TableIII(); err != nil {
		t.Fatal(err)
	}
}

func TestTableVReproduction(t *testing.T) {
	rows, err := TableVData()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows", len(rows))
	}
	// Paper: 5y / <1y / >10y / ~4y / >10y / ~5y.
	checks := []struct{ lo, hi float64 }{
		{4.5, 5.5}, {0, 1.0}, {10, 1e9}, {3.2, 4.8}, {10, 1e9}, {4.3, 5.7},
	}
	for i, r := range rows {
		if r.Lifetime < checks[i].lo || r.Lifetime > checks[i].hi {
			t.Errorf("row %d (%s OC=%v): lifetime %.2f, want [%v,%v]",
				i, r.Cooling, r.Overclocked, r.Lifetime, checks[i].lo, checks[i].hi)
		}
	}
}

func TestPowerSavingsNear182W(t *testing.T) {
	sb, tbl, err := PowerSavings()
	if err != nil {
		t.Fatal(err)
	}
	if tbl == nil {
		t.Fatal("nil table")
	}
	if math.Abs(sb.Total()-182) > 10 {
		t.Fatalf("savings %v, want ~182 W", sb.Total())
	}
}

func TestTableVIReproduction(t *testing.T) {
	_, air, nonOC, oc, err := TableVIData()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(air.Total()-1) > 1e-9 {
		t.Fatal("air baseline not normalized")
	}
	if math.Abs(nonOC.Total()-0.93) > 0.005 {
		t.Fatalf("non-OC total %v, want 0.93", nonOC.Total())
	}
	if math.Abs(oc.Total()-0.96) > 0.005 {
		t.Fatalf("OC total %v, want 0.96", oc.Total())
	}
	if _, err := TableVI(); err != nil {
		t.Fatal(err)
	}
}

func TestOversubTCOReproduction(t *testing.T) {
	_, ocS, nonS, err := OversubTCO()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ocS.VsAir-0.13) > 0.01 {
		t.Fatalf("OC oversub vs air %v, want ~13%%", ocS.VsAir)
	}
	if math.Abs(nonS.VsSelf-0.091) > 0.015 {
		t.Fatalf("non-OC oversub vs self %v, want ~10%%", nonS.VsSelf)
	}
}

func TestFig4Smoke(t *testing.T) {
	tbl := Fig4()
	if len(tbl.Rows) != 5 {
		t.Fatalf("Fig 4 rows %d", len(tbl.Rows))
	}
}

func TestStabilityReportSmoke(t *testing.T) {
	tbl := StabilityReport()
	if len(tbl.Rows) != 3 {
		t.Fatalf("stability rows %d", len(tbl.Rows))
	}
}

func TestFig9Reproduction(t *testing.T) {
	cells, err := Fig9Data(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 8*4 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.Config == "B2" {
			if math.Abs(c.Improvement) > 1e-9 {
				t.Errorf("%s B2 improvement %v", c.App, c.Improvement)
			}
			continue
		}
		if c.Improvement <= 0 {
			t.Errorf("%s %s: non-positive improvement", c.App, c.Config)
		}
		if c.Improvement > 0.30 {
			t.Errorf("%s %s: improvement %v beyond the paper's range", c.App, c.Config, c.Improvement)
		}
		if c.P99PowerW < c.AvgPowerW {
			t.Errorf("%s %s: P99 power below average", c.App, c.Config)
		}
	}
}

func TestFig10Reproduction(t *testing.T) {
	cells := Fig10Data()
	if len(cells) != 4*7 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		switch c.Config {
		case "B4":
			if math.Abs(c.VsB1-0.17) > 0.02 {
				t.Errorf("%s B4 gain %v, want ~17%%", c.Kernel, c.VsB1)
			}
		case "OC3":
			if math.Abs(c.VsB1-0.24) > 0.02 {
				t.Errorf("%s OC3 gain %v, want ~24%%", c.Kernel, c.VsB1)
			}
		}
	}
}

func TestFig11Reproduction(t *testing.T) {
	cells := Fig11Data()
	if len(cells) != 6*4 {
		t.Fatalf("%d cells", len(cells))
	}
	var basePower, ocPower float64
	for _, c := range cells {
		if c.Model == "VGG16" && c.Config == "Base" {
			basePower = c.P99PowerW
		}
		if c.Model == "VGG16" && c.Config == "OCG3" {
			ocPower = c.P99PowerW
		}
		if c.Improvement < 0 || c.Improvement > 0.16 {
			t.Errorf("%s %s: improvement %v outside [0, ~15%%]", c.Model, c.Config, c.Improvement)
		}
	}
	if math.Abs(basePower-193) > 6 || math.Abs(ocPower-231) > 8 {
		t.Errorf("P99 power %v → %v, want 193 → 231", basePower, ocPower)
	}
}
