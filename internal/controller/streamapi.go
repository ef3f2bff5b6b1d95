package controller

import (
	"io"
	"net/http"
	"strconv"
	"strings"

	"github.com/imcf/imcf/internal/stream"
)

// serveComponent answers a GET of one published stream component: the
// hub's stored bytes plus the newline json.Encoder would end them with,
// under the ETag of that same version, or 304 when the request's
// If-None-Match already names it. Body and version come from one
// locked read (stream.Hub.Component), so a step publishing in between
// cannot pair one plan's body with another's ETag. It reports false,
// writing nothing, when the component has never been published.
func serveComponent(w http.ResponseWriter, r *http.Request, h *stream.Hub, kind stream.Kind) bool {
	data, seq := h.Component("", kind)
	if seq == 0 {
		return false
	}
	if componentETag(w, r, h, seq) {
		return true
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(data)           //nolint:errcheck // response already committed
	io.WriteString(w, "\n") //nolint:errcheck // response already committed
	return true
}

// componentETag stamps the response with the ETag of version seq of a
// component of h and answers 304 when the request's If-None-Match
// already names it, reporting true; the caller then writes nothing
// more.
func componentETag(w http.ResponseWriter, r *http.Request, h *stream.Hub, seq uint64) bool {
	tag := `"` + h.Instance() + "." + strconv.FormatUint(seq, 10) + `"`
	w.Header().Set("ETag", tag)
	if match := r.Header.Get("If-None-Match"); match != "" && etagMatches(match, tag) {
		stream.StreamNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return true
	}
	return false
}

// etagMatches reports whether an If-None-Match header names tag. Weak
// validators compare equal to their strong form — these ETags version
// byte-identical canonical state, so weakness adds nothing.
func etagMatches(header, tag string) bool {
	for _, part := range strings.Split(header, ",") {
		part = strings.TrimSpace(part)
		part = strings.TrimPrefix(part, "W/")
		if part == "*" || part == tag {
			return true
		}
	}
	return false
}
