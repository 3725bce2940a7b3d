package telemetry

import (
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestTraceHandlerRejects: a sec that is not a positive number is a bad
// request — NaN included, which parses and compares false with zero either
// way — and a trace asked for while another is being collected conflicts.
func TestTraceHandlerRejects(t *testing.T) {
	defer clearTracer()
	for _, tc := range []struct {
		query  string
		active bool
		want   int
	}{
		{"sec=0", false, http.StatusBadRequest},
		{"sec=-1", false, http.StatusBadRequest},
		{"sec=abc", false, http.StatusBadRequest},
		{"sec=NaN", false, http.StatusBadRequest},
		{"sec=0.01", true, http.StatusConflict},
	} {
		clearTracer()
		if tc.active {
			StartTracing()
		}
		rec := httptest.NewRecorder()
		TraceHandler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/debug/trace?"+tc.query, nil))
		if rec.Code != tc.want {
			t.Errorf("%s (trace active: %v): status %d, want %d", tc.query, tc.active, rec.Code, tc.want)
		}
	}
}
