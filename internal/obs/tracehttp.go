package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
)

// ServeHTTP serves the recorder's retained traces as JSON — the one
// /debug/requests handler of the query daemon and the ingest
// observability endpoint. Query parameters narrow the view:
// ?endpoint= keeps one endpoint, ?disposition= one outcome class
// (ok|shed|error), ?limit= caps the count (absent: no cap). An unknown
// disposition or a limit that is not a positive integer is a 400 with
// a {"error": …} JSON body, not a silently empty list. A nil recorder
// answers 404, as an unmounted route would.
func (r *Recorder) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if r == nil {
		http.NotFound(w, req)
		return
	}
	q := req.URL.Query()
	f := TraceFilter{Endpoint: q.Get("endpoint"), Disposition: q.Get("disposition")}
	if f.Disposition != "" {
		if _, ok := ParseDisposition(f.Disposition); !ok {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("bad disposition %q: want ok|shed|error", f.Disposition)})
			return
		}
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, map[string]string{
				"error": fmt.Sprintf("bad limit %q: want a positive integer", s)})
			return
		}
		f.Limit = n
	}
	snaps := r.Snapshot(f)
	if snaps == nil {
		snaps = []TraceSnapshot{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"count": len(snaps), "requests": snaps})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}
