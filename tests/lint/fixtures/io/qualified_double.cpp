// Fixture: a double-returning function defined under a qualified name, a
// raw comparison of a tracked double, then a namespace-scope template
// argument list with a comma.  The qualified name is not a variable, so
// the doubles declared before that comma are still tracked.
#include <cmath>
#include <variant>

struct Foo {
  double bar(int x) const;
};

double Foo::bar(int x) const { return x * 0.5; }

bool fractional(double y) {
  double d = y * 2.0;
  return d != std::floor(d);  // finding
}

std::variant<int, long> h();
