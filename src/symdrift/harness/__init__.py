"""Dataset ingestion, translators, run orchestration, and the CLI."""
