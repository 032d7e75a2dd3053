"""End-to-end pipeline benchmark (see README.md in this directory)."""
