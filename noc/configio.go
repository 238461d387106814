package noc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// SaveConfig writes a config as indented JSON, suitable for versioning
// experiment setups alongside their results.
func SaveConfig(path string, c Config) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("noc: encoding config: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// LoadConfig reads a JSON config written by SaveConfig. Fields absent from
// the file keep their DefaultConfig values, so partial configs work; a key
// that names no field is an error, so a typo cannot silently run the
// default platform.
func LoadConfig(path string) (Config, error) {
	c := DefaultConfig()
	data, err := os.ReadFile(path)
	if err != nil {
		return c, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err = dec.Decode(&c)
	if _, tail := dec.Token(); err == nil && tail != io.EOF {
		err = errors.New("trailing data after the config object")
	}
	if err != nil {
		return c, fmt.Errorf("noc: decoding %s: %w", path, err)
	}
	if _, err := c.lower(); err != nil {
		return c, fmt.Errorf("noc: %s: %w", path, err)
	}
	return c, nil
}
