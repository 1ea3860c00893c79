// Options user for the lint_options_used fixtures, placed under tests/.
// `orphan_knob` is only read here, which does not count as setting it.
void Configure(dfs::CacheManager::Options& opts) {
  opts.used_knob = 1;
  opts.rpc.pool_threads = 2;
  int copy = opts.orphan_knob;
  (void)(opts.orphan_knob == copy);
}
