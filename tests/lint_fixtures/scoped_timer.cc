// Lint fixture: histogram names passed to ScopedTimer, both as declarations
// (`ScopedTimer name("...")`) and as temporaries.

namespace lint_fixture {

struct ScopedTimer {
  explicit ScopedTimer(const char* histogram_name);
};

void Use() {
  ScopedTimer registered("compiler.phase.pareto.seconds");  // Registered: clean.
  ScopedTimer unknown("compiler.phase.fixture.seconds");    // Unregistered.
  ScopedTimer braced{"Compiler.Phase"};                     // Violates the grammar.
  ScopedTimer("compiler.phase.fixture_temp.seconds");       // Unregistered temporary.
  ScopedTimer wildcard(
      "compiler.pass.fixture_pass.seconds");  // Wildcard-registered: clean.
}

}  // namespace lint_fixture
