#ifndef VKG_PERFBENCH_SELFTEST_H_
#define VKG_PERFBENCH_SELFTEST_H_

namespace perfbench {

/// Checks the oracle on a hand-built graph and that corrupted answers
/// are rejected; prints each failed expectation to stderr.
bool RunSelfTest();

}  // namespace perfbench

#endif  // VKG_PERFBENCH_SELFTEST_H_
