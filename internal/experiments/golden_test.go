package experiments

import (
	"context"
	"math"
	"testing"
)

// Golden regression grids: the calibrated model outputs for every cell
// of Figures 9, 10 and 11, captured from the tuned models. These pin
// the calibration — any model change that silently shifts a reproduced
// figure fails here first. Tolerance is half a percentage point.

const goldenTol = 0.005

type goldenCell struct {
	row, config string
	value       float64
}

var fig9Golden = []goldenCell{
	{"SQL", "B2", 0.0000},
	{"SQL", "OC1", 0.1232},
	{"SQL", "OC2", 0.1461},
	{"SQL", "OC3", 0.2458},
	{"Training", "B2", 0.0000},
	{"Training", "OC1", 0.1366},
	{"Training", "OC2", 0.1409},
	{"Training", "OC3", 0.1449},
	{"Key-Value", "B2", 0.0000},
	{"Key-Value", "OC1", 0.1218},
	{"Key-Value", "OC2", 0.1537},
	{"Key-Value", "OC3", 0.1969},
	{"BI", "B2", 0.0000},
	{"BI", "OC1", 0.1280},
	{"BI", "OC2", 0.1309},
	{"BI", "OC3", 0.1369},
	{"Pmbench", "B2", 0.0000},
	{"Pmbench", "OC1", 0.0598},
	{"Pmbench", "OC2", 0.1055},
	{"Pmbench", "OC3", 0.1415},
	{"TeraSort", "B2", 0.0000},
	{"TeraSort", "OC1", 0.0341},
	{"TeraSort", "OC2", 0.0556},
	{"TeraSort", "OC3", 0.1156},
	{"DiskSpeed", "B2", 0.0000},
	{"DiskSpeed", "OC1", 0.0354},
	{"DiskSpeed", "OC2", 0.1092},
	{"DiskSpeed", "OC3", 0.1343},
	{"SPECJBB", "B2", 0.0000},
	{"SPECJBB", "OC1", 0.1141},
	{"SPECJBB", "OC2", 0.1414},
	{"SPECJBB", "OC3", 0.1680},
}

var fig10Golden = []goldenCell{
	{"copy", "B1", 0.0000},
	{"copy", "B2", 0.0282},
	{"copy", "B3", 0.0839},
	{"copy", "B4", 0.1700},
	{"copy", "OC1", 0.0819},
	{"copy", "OC2", 0.1438},
	{"copy", "OC3", 0.2401},
	{"scale", "B1", 0.0000},
	{"scale", "B2", 0.0282},
	{"scale", "B3", 0.0839},
	{"scale", "B4", 0.1700},
	{"scale", "OC1", 0.0819},
	{"scale", "OC2", 0.1438},
	{"scale", "OC3", 0.2401},
	{"add", "B1", 0.0000},
	{"add", "B2", 0.0282},
	{"add", "B3", 0.0839},
	{"add", "B4", 0.1700},
	{"add", "OC1", 0.0819},
	{"add", "OC2", 0.1438},
	{"add", "OC3", 0.2401},
	{"triad", "B1", 0.0000},
	{"triad", "B2", 0.0282},
	{"triad", "B3", 0.0839},
	{"triad", "B4", 0.1700},
	{"triad", "OC1", 0.0819},
	{"triad", "OC2", 0.1438},
	{"triad", "OC3", 0.2401},
}

var fig11Golden = []goldenCell{
	{"VGG11", "Base", 0.0000},
	{"VGG11", "OCG1", 0.0719},
	{"VGG11", "OCG2", 0.1370},
	{"VGG11", "OCG3", 0.1418},
	{"VGG11B", "Base", 0.0000},
	{"VGG11B", "OCG1", 0.0879},
	{"VGG11B", "OCG2", 0.1332},
	{"VGG11B", "OCG3", 0.1348},
	{"VGG13", "Base", 0.0000},
	{"VGG13", "OCG1", 0.0759},
	{"VGG13", "OCG2", 0.1360},
	{"VGG13", "OCG3", 0.1401},
	{"VGG13B", "Base", 0.0000},
	{"VGG13B", "OCG1", 0.0899},
	{"VGG13B", "OCG2", 0.1327},
	{"VGG13B", "OCG3", 0.1339},
	{"VGG16", "Base", 0.0000},
	{"VGG16", "OCG1", 0.0799},
	{"VGG16", "OCG2", 0.1351},
	{"VGG16", "OCG3", 0.1383},
	{"VGG16B", "Base", 0.0000},
	{"VGG16B", "OCG1", 0.0929},
	{"VGG16B", "OCG2", 0.1320},
	{"VGG16B", "OCG3", 0.1326},
}

func TestFig9Golden(t *testing.T) {
	cells, err := Fig9Data(context.Background(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := map[[2]string]float64{}
	for _, c := range cells {
		got[[2]string{c.App, c.Config}] = c.Improvement
	}
	for _, g := range fig9Golden {
		v, ok := got[[2]string{g.row, g.config}]
		if !ok {
			t.Errorf("missing cell %s/%s", g.row, g.config)
			continue
		}
		if math.Abs(v-g.value) > goldenTol {
			t.Errorf("Fig9 %s/%s drifted: %v, golden %v", g.row, g.config, v, g.value)
		}
	}
	if len(fig9Golden) != len(got) {
		t.Errorf("cell count changed: %d golden vs %d produced", len(fig9Golden), len(got))
	}
}

func TestFig10Golden(t *testing.T) {
	got := map[[2]string]float64{}
	for _, c := range Fig10Data() {
		got[[2]string{c.Kernel, c.Config}] = c.VsB1
	}
	for _, g := range fig10Golden {
		v, ok := got[[2]string{g.row, g.config}]
		if !ok {
			t.Errorf("missing cell %s/%s", g.row, g.config)
			continue
		}
		if math.Abs(v-g.value) > goldenTol {
			t.Errorf("Fig10 %s/%s drifted: %v, golden %v", g.row, g.config, v, g.value)
		}
	}
}

func TestFig11Golden(t *testing.T) {
	got := map[[2]string]float64{}
	for _, c := range Fig11Data() {
		got[[2]string{c.Model, c.Config}] = c.Improvement
	}
	for _, g := range fig11Golden {
		v, ok := got[[2]string{g.row, g.config}]
		if !ok {
			t.Errorf("missing cell %s/%s", g.row, g.config)
			continue
		}
		if math.Abs(v-g.value) > goldenTol {
			t.Errorf("Fig11 %s/%s drifted: %v, golden %v", g.row, g.config, v, g.value)
		}
	}
}
