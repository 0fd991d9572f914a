"""Empty: perfbench/tracing.py's MODULES imports rothlab.bounds by name; ROADMAP H's benchmark change deletes it."""
