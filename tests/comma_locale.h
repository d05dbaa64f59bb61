// A comma-decimal locale for the locale-invariance tests (wire, artifact
// I/O), and a scope that makes a locale the global C++ locale.
//
// CommaLocale() synthesizes what de_DE looks like to iostreams: ',' as the
// decimal point and '.' grouping thousands, so an un-pinned stream writes
// "0,5" and "1.234.567" and reads "0.5" as 0. It needs no locale installed
// on the host. Being unnamed, it does not change glibc's C locale when made
// global, so strtod and printf keep their '.'; only iostreams see it.
#ifndef GCON_TESTS_COMMA_LOCALE_H_
#define GCON_TESTS_COMMA_LOCALE_H_

#include <locale>
#include <string>

namespace gcon {

class CommaNumpunct : public std::numpunct<char> {
 protected:
  char do_decimal_point() const override { return ','; }
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

inline std::locale CommaLocale() {
  return std::locale(std::locale::classic(), new CommaNumpunct);
}

/// Makes `loc` the global C++ locale (the default of every stream made
/// after) for one scope.
class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& loc)
      : previous_(std::locale::global(loc)) {}
  ~ScopedGlobalLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

}  // namespace gcon

#endif  // GCON_TESTS_COMMA_LOCALE_H_
