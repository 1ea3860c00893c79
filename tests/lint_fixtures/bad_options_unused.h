// Known-bad fixture for lint_options_used: `orphan_knob` is set by no test,
// bench or example (options_user.cc sets only `used_knob` and `rpc`).
namespace dfs {

class CacheManager {
 public:
  struct Options {
    int used_knob = 0;
    // A knob nobody sets.
    int orphan_knob = 4;
    NodeOptions rpc;  // set through a member
  };
};

}  // namespace dfs
