// Known-bad fixture for triad_lint rule R3: float printf conversions
// and std::to_chars calls without an explicit precision in an exporter
// file. Never compiled; linted by tests/lint_test.cpp.
#include <charconv>
#include <cstdio>

void export_row(double value) {
  std::printf("value=%f\n", value);       // LINT:R3
  std::printf("slope=%+g ppm\n", value);  // LINT:R3
  std::printf("wide=%12e\n", value);      // LINT:R3
}

void export_row_pinned(double value) {
  // The sanctioned forms: explicit precision everywhere. Must NOT fire.
  std::printf("value=%.9g\n", value);
  std::printf("pct=%5.1f%%\n", value);
  std::printf("count=%d scale=%u\n", 1, 2u);
}

void export_to_chars(char* buf, double value) {
  std::to_chars(buf, buf + 32, value, std::chars_format::general);  // LINT:R3
  std::to_chars(buf, buf + 32, value,  // LINT:R3
                std::chars_format::scientific);
  std::to_chars(buf, end(buf), value, f(chars_format::fixed, 1));  // LINT:R3
}

void export_to_chars_pinned(char* buf, double value, long count) {
  // Must NOT fire: a precision is passed, or no chars_format is named
  // (the integer overloads).
  std::to_chars(buf, buf + 32, value, std::chars_format::general, 10);
  std::to_chars(buf, buf + 32, value,
                std::chars_format::fixed, g(1, 2));
  std::to_chars(buf, buf + 32, count);
  std::to_chars(buf, buf + 32, count, 16);
}
