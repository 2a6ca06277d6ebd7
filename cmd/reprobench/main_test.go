package main

import "testing"

func TestSelectJobs(t *testing.T) {
	for _, tc := range []struct {
		fig, table string
		want       []string // flag+" "+name of the selected jobs; nil = error
	}{
		{"", "", nil}, // everything; checked below
		{"4", "", []string{"fig 4"}},
		{"", "3", []string{"table 3"}},
		{"memory", "3", []string{"fig memory", "table 3"}},
		{"", "4", nil},       // 4 is a figure, not a table
		{"3", "", nil},       // and 3 a table, not a figure
		{"layouts", "", nil}, // removed with the row engine
		{"4", "nope", nil},   // one bad name rejects the whole run
	} {
		got, err := selectJobs(tc.fig, tc.table)
		if tc.fig == "" && tc.table == "" {
			if err != nil || len(got) != len(jobs) {
				t.Errorf("no flags: selected %d of %d jobs, err %v", len(got), len(jobs), err)
			}
			continue
		}
		if (err != nil) != (tc.want == nil) {
			t.Errorf("-fig %q -table %q: err = %v, want error %v", tc.fig, tc.table, err, tc.want == nil)
			continue
		}
		if len(got) != len(tc.want) {
			t.Errorf("-fig %q -table %q: selected %d jobs, want %v", tc.fig, tc.table, len(got), tc.want)
			continue
		}
		for i, j := range got {
			if j.flag+" "+j.name != tc.want[i] {
				t.Errorf("-fig %q -table %q: job %d = %s %s, want %s", tc.fig, tc.table, i, j.flag, j.name, tc.want[i])
			}
		}
	}
}
