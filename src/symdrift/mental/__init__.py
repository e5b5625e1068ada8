"""Table-guided translation: expression routing with extend/reuse/refine."""
