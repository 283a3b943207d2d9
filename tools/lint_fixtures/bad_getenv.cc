// Fixture: raw environment reads loop_lint.py must reject.
// Never compiled; consumed by `loop_lint.py --self-test`.

#include <cstdlib>

namespace loopsim_fixture
{

bool
privateJobsKnob()
{
    // A second grammar for a knob the registry already owns.
    const char *env = std::getenv("LOOPSIM_JOBS");
    return env != nullptr && *env != '\0';
}

bool
privateProfileKnob()
{
    return getenv("LOOPSIM_PROFILE") != nullptr;
}

} // namespace loopsim_fixture
