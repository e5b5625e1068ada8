"""Function-free first-order logic: data model, dialect, clause conversion."""
