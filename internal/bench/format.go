package bench

import (
	"encoding/csv"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// FormatRows renders rows as an aligned text table. The algorithm and k
// columns are as wide as their longest entry, so one long name or a
// four-digit k cannot push the later columns of its row out of line.
func FormatRows(rows []Row) string {
	wAlgo, wK := len("algorithm"), len("k")
	for _, r := range rows {
		wAlgo = max(wAlgo, utf8.RuneCountInString(r.Algorithm))
		wK = max(wK, len(strconv.Itoa(r.K)))
	}
	var b strings.Builder
	line := func(format string, args ...any) {
		b.WriteString(strings.TrimRight(fmt.Sprintf(format, args...), " "))
		b.WriteByte('\n')
	}
	line("%-*s %5s %5s %*s %6s %14s %14s %12s %12s %3s %s",
		wAlgo, "algorithm", "s", "d", wK, "k", "eps", "words", "theory", "error", "budget", "ok", "note")
	for _, r := range rows {
		ok := "no"
		if r.OK {
			ok = "yes"
		}
		line("%-*s %5d %5d %*d %6.3f %14.1f %14.1f %12.4g %12.4g %3s %s",
			wAlgo, r.Algorithm, r.S, r.D, wK, r.K, r.Eps, r.Words, r.TheoryW, r.CovErr, r.Budget, ok, r.Note)
	}
	return b.String()
}

// RowsCSV renders rows as CSV with a header, for piping into plotting
// tools.
func RowsCSV(rows []Row) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	_ = w.Write([]string{"experiment", "algorithm", "s", "d", "k", "eps", "words", "theory_words", "error", "budget", "ok", "note"})
	for _, r := range rows {
		_ = w.Write([]string{
			r.Experiment, r.Algorithm,
			strconv.Itoa(r.S), strconv.Itoa(r.D), strconv.Itoa(r.K),
			fmt.Sprintf("%g", r.Eps),
			fmt.Sprintf("%g", r.Words), fmt.Sprintf("%g", r.TheoryW),
			fmt.Sprintf("%g", r.CovErr), fmt.Sprintf("%g", r.Budget),
			strconv.FormatBool(r.OK), r.Note,
		})
	}
	w.Flush()
	return b.String()
}

// SeriesCSV renders sweeps as CSV: one x column and one column per series.
func SeriesCSV(xlabel string, series []Series) string {
	var b strings.Builder
	w := csv.NewWriter(&b)
	header := []string{xlabel}
	for _, s := range series {
		header = append(header, s.Name)
	}
	_ = w.Write(header)
	if len(series) > 0 {
		for i := range series[0].X {
			rec := []string{fmt.Sprintf("%g", series[0].X[i])}
			for _, s := range series {
				if i < len(s.Y) {
					rec = append(rec, fmt.Sprintf("%g", s.Y[i]))
				} else {
					rec = append(rec, "")
				}
			}
			_ = w.Write(rec)
		}
	}
	w.Flush()
	return b.String()
}
